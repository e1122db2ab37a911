// Package core implements CFSF itself (paper §IV): the offline phase —
// Global Item Similarity matrix, K-means user clustering, cluster
// smoothing — and the online phase — iCluster ranking, local M×K matrix
// construction and SIR′/SUR′/SUIR′ fusion (Eq. 9–14).
//
// A trained Model is immutable and safe for concurrent prediction. The
// per-user like-minded-neighbour selection is cached ("caching
// intermediate results", paper §V-D) because Eq. 10 depends only on the
// active user, not on the active item.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"cfsf/internal/cluster"
	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
	"cfsf/internal/smoothing"
)

// Config holds every CFSF parameter. Defaults (paper §V-C1): C=30,
// λ=0.8, δ=0.1, K=25, M=95; the paper’s w=0.35 maps to OriginalWeight ε
// = 1−w (see that field’s comment and DESIGN.md).
type Config struct {
	// M is the number of similar items taken from the GIS (paper M=95).
	M int
	// K is the number of like-minded users selected by Eq. 10 (paper K=25).
	K int
	// Clusters is C, the K-means user-cluster count (paper C=30).
	Clusters int
	// Lambda balances SUR′ against SIR′ in Eq. 14 (paper λ=0.8).
	Lambda float64
	// Delta is the SUIR′ share in Eq. 14 (paper δ=0.1).
	Delta float64
	// OriginalWeight is ε in Eq. 11: the weight of an original rating; a
	// smoothed rating gets 1−ε. The paper's tuned "w ∈ [0.2, 0.4]" is
	// read as the smoothed-rating weight (see DESIGN.md: with originals
	// down-weighted 0.35 vs 0.65 the method is strictly worse on every
	// dataset we generated, and the cluster-smoothing literature the
	// paper builds on — Xue et al. '05 — likewise trusts original data
	// more). The default ε = 0.8 puts the smoothed weight at 0.2, on
	// the paper's optimal band.
	OriginalWeight float64
	// CandidateFactor bounds the like-minded candidate set to
	// CandidateFactor×K users drawn in iCluster order (§IV-E2). <=0
	// means 4.
	CandidateFactor int
	// GIS configures the offline item-similarity build. TopN is raised
	// to at least M automatically.
	GIS similarity.GISOptions
	// ItemFeatures, when non-nil together with ContentBlend > 0, blends
	// item-attribute cosine similarity into the GIS (paper §VI future
	// work: "attributes of items"). ItemFeatures[i] is item i's
	// attribute vector, e.g. a genre one-hot.
	ItemFeatures [][]float64
	// ContentBlend is the share of content similarity in the blended
	// GIS (0 = pure collaborative, 1 = pure content).
	ContentBlend float64
	// ClusterMaxIter caps K-means iterations (0 = 100).
	ClusterMaxIter int
	// ClusterMetric selects the K-means distance (default PCC).
	ClusterMetric cluster.Metric
	// Seed drives K-means++ initialisation.
	Seed int64
	// Workers bounds offline/batch parallelism (<=0 = GOMAXPROCS).
	Workers int
	// DisableSmoothing turns Eq. 7 off (ablation): missing ratings stay
	// missing and only observed ratings enter Eq. 10/12.
	DisableSmoothing bool
	// DisableCache turns the per-user neighbour cache off (ablation).
	DisableCache bool
	// FullUserSearch ignores iCluster pre-selection and scores every
	// user as a like-minded candidate (ablation: §IV-E2 without the
	// cluster shortcut).
	FullUserSearch bool
	// RecommendCacheSize is the most one user's cached recommendation
	// ranking holds (see internal/core/reccache.go and DESIGN.md §10): an
	// entry starts as the n its first read asked for and grows to this
	// once, on a deeper ask. 0 selects the default (128, comfortably above
	// the HTTP layer's n ≤ 100 ceiling); negative disables the cache
	// (ablation / memory-constrained deployments). The cache never changes
	// Recommend's output — only whether the exact scan runs, and how deep.
	RecommendCacheSize int
}

// DefaultConfig returns the paper's parameter setting for MovieLens.
func DefaultConfig() Config {
	return Config{
		M:               95,
		K:               25,
		Clusters:        30,
		Lambda:          0.8,
		Delta:           0.1,
		OriginalWeight:  0.8,
		CandidateFactor: 4,
		GIS:             similarity.DefaultGISOptions(),
	}
}

// Validate reports the first invalid field of the configuration.
func (c Config) Validate() error {
	switch {
	case c.M <= 0:
		return fmt.Errorf("cfsf: M must be positive, got %d", c.M)
	case c.K <= 0:
		return fmt.Errorf("cfsf: K must be positive, got %d", c.K)
	case c.Clusters <= 0:
		return fmt.Errorf("cfsf: Clusters must be positive, got %d", c.Clusters)
	case c.Lambda < 0 || c.Lambda > 1:
		return fmt.Errorf("cfsf: Lambda must be in [0,1], got %g", c.Lambda)
	case c.Delta < 0 || c.Delta > 1:
		return fmt.Errorf("cfsf: Delta must be in [0,1], got %g", c.Delta)
	case c.OriginalWeight < 0 || c.OriginalWeight > 1:
		return fmt.Errorf("cfsf: OriginalWeight must be in [0,1], got %g", c.OriginalWeight)
	}
	return nil
}

// blendsContent reports whether Train builds the GIS with item attributes
// blended into its weights (similarity.BuildGISWithContent). Those weights
// are not the Eq. 5 weights of the matrix, so no model file can hold such
// a model (SaveAt).
func (c Config) blendsContent() bool { return c.ContentBlend > 0 && len(c.ItemFeatures) > 0 }

// TrainStats reports what the offline phase built and how long each step
// took. For a model produced by WithUpdates the durations measure the
// incremental refresh, Incremental is true, and UpdatesApplied counts
// the ratings folded in — so a serving layer can surface how much
// cheaper each refresh was than the full train.
type TrainStats struct {
	// GISDuration and ClusterDuration time the GIS and the clustering as
	// the model got them: built by Train, refreshed by an Apply, or, for
	// a model loaded from a model file, derived from what the file stores
	// — every GIS list, selected under its horizon, and the centroids and
	// member lists.
	GISDuration     time.Duration
	ClusterDuration time.Duration
	SmoothDuration  time.Duration
	// MirrorDuration is the id-sorted top-M mirror build (buildTopM).
	// With the three above it accounts for TotalDuration up to the matrix
	// update and bookkeeping between the phases.
	MirrorDuration time.Duration
	TotalDuration  time.Duration
	GISNeighbors   int // stored (item, neighbour) pairs
	// GISReselected counts the GIS lists that the Applies since the last
	// Train or load selected again from all their candidates, because an
	// Apply left fewer than M entries above a list's horizon
	// (similarity.GIS.Reselected). Not persisted: 0 after a Train or a
	// load.
	GISReselected  int
	ClusterIters   int
	ClusterInertia float64
	// Incremental is true when the stats describe a WithUpdates refresh
	// rather than a full Train.
	Incremental bool
	// UpdatesApplied is the number of RatingUpdates folded in by the
	// refresh (0 for a full Train).
	UpdatesApplied int
}

// Model is a trained CFSF model. A published Model is never mutated:
// Train, Load, WithUpdates, and the shard paths each build a fresh value
// and hand it over complete, which is what lets readers use it without
// locks. The //cfsf:immutable contracts below are enforced by lockcheck;
// the //cfsf:cow mirrors (whose builders write them inside parallel.For
// closures, before publication) by cowcheck.
type Model struct {
	cfg      Config              //cfsf:immutable
	m        *ratings.Matrix     //cfsf:immutable
	gis      *similarity.GIS     //cfsf:immutable
	clusters *cluster.Result     //cfsf:immutable
	sm       *smoothing.Smoother //cfsf:immutable
	stats    TrainStats          //cfsf:immutable

	// neighborCache[u] holds the Eq. 10 top-K selection for user u. The
	// slice header is fixed at construction; elements are atomic
	// pointers, so the lazy fill on the read path stays race-free.
	neighborCache []atomic.Pointer[[]likeMinded] //cfsf:cow slice header swapped whole at publication; elements are atomic slots

	// recCache[u] holds user u's cached top-C recommendation ranking
	// (reccache.go). Same discipline as neighborCache: allocated cold by
	// every constructor, the slice header fixed at construction, elements
	// atomic pointers filled on the read path. nil when the cache is
	// disabled.
	recCache []atomic.Pointer[recEntry] //cfsf:cow slice header swapped whole at publication; elements are atomic slots

	// topM[i] is the id-sorted mirror of item i's top-M GIS prefix: the
	// same entries topItems(i) returns, re-sorted by ascending item id so
	// the online phase merges them against rating rows without a
	// per-request copy+sort. Invariant: regenerated whenever the
	// score-sorted list (and hence its truncation) changes — buildTopM
	// re-derives every mirror row and only shares a previous model's row
	// when the underlying GIS prefix is provably identical.
	topM [][]mathx.Scored //cfsf:cow rows shared across generations; never written after the model pointer is published

	// topM2[i][k] is topM[i][k].Score², precomputed so the Eq. 13 pair
	// weight in suirLocal feeds its sqrt without re-squaring the item
	// similarity K times per request. Built and shared in lockstep with
	// topM (same float64 multiply, so values are bit-identical to
	// squaring at request time).
	topM2 [][]float64 //cfsf:cow built and shared in lockstep with topM
}

// likeMinded is one selected neighbour of an active user.
type likeMinded struct {
	user int32
	sim  float64
}

// Train runs the offline phase of CFSF on m.
//
//cfsf:wallclock-ok phase durations recorded in TrainStats only; no clock value reaches predictions or replayed state
func Train(m *ratings.Matrix, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.NumUsers() == 0 || m.NumItems() == 0 {
		return nil, fmt.Errorf("cfsf: empty matrix (%d users, %d items)", m.NumUsers(), m.NumItems())
	}
	gisOpts := cfg.GIS
	if gisOpts.TopN > 0 && gisOpts.TopN < cfg.M {
		gisOpts.TopN = cfg.M
	}
	gisOpts.Workers = cfg.Workers

	start := time.Now()
	mod := &Model{cfg: cfg, m: m}

	t := time.Now()
	mod.gis = trainGIS(cfg, m, gisOpts)
	mod.stats.GISDuration = time.Since(t)
	mod.stats.GISNeighbors = mod.gis.TotalNeighbors()

	t = time.Now()
	cl, err := cluster.Run(m, cluster.Options{
		K:       cfg.Clusters,
		MaxIter: cfg.ClusterMaxIter,
		Seed:    cfg.Seed,
		Metric:  cfg.ClusterMetric,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	mod.clusters = cl
	mod.stats.ClusterDuration = time.Since(t)
	mod.stats.ClusterIters = cl.Iterations
	mod.stats.ClusterInertia = cl.Inertia

	t = time.Now()
	mod.sm = smoothing.New(m, cl)
	mod.stats.SmoothDuration = time.Since(t)

	mod.neighborCache = make([]atomic.Pointer[[]likeMinded], m.NumUsers())
	mod.initRecCache()
	t = time.Now()
	mod.buildTopM(nil)
	mod.stats.MirrorDuration = time.Since(t)
	mod.stats.TotalDuration = time.Since(start)
	return mod, nil
}

// trainGIS builds the GIS Train builds on m under opts: Eq. 5, with item
// attributes blended in when cfg asks for them.
func trainGIS(cfg Config, m *ratings.Matrix, opts similarity.GISOptions) *similarity.GIS {
	if cfg.blendsContent() {
		return similarity.BuildGISWithContent(m, cfg.ItemFeatures, cfg.ContentBlend, opts)
	}
	return similarity.BuildGIS(m, opts)
}

// buildTopM materialises the id-sorted top-M mirror of every item's GIS
// neighbourhood. With a previous generation at hand it edits instead of
// rebuilding: a row whose top-M prefix holds the same entries as prev's
// is shared (same array — the mirror-model of the copy-on-write sharing
// in the GIS itself), and a row whose prefix differs in a few entries is
// patched from prev's row in O(M). Everything else — no prev, a new item, a
// different M, a delta wider than maxMirrorPatch — is built from the
// score-sorted list, the way Train builds every row.
//
//cfsf:init-only called by Train, Load, WithUpdates and the shard paths on a model that has not been published yet
func (mod *Model) buildTopM(prev *Model) {
	q := mod.gis.NumItems()
	mod.topM = make([][]mathx.Scored, q)
	mod.topM2 = make([][]float64, q)
	if prev != nil && prev.cfg.M != mod.cfg.M {
		prev = nil
	}
	parallel.For(q, mod.cfg.Workers, func(i int) {
		var row []mathx.Scored
		if prev != nil && i < prev.gis.NumItems() {
			var left, entered [maxMirrorPatch]mathx.Scored
			nl, ne, ok := prefixDelta(prev.topItems(i), mod.topItems(i), &left, &entered)
			switch {
			case !ok: // too wide a delta: rebuild below
			case nl+ne == 0:
				mod.topM[i] = prev.topM[i]
				mod.topM2[i] = prev.topM2[i]
				return
			default:
				row = patchByID(prev.topM[i], left[:nl], entered[:ne])
			}
		}
		if row == nil {
			row = mod.gis.TopNByID(i, mod.cfg.M)
		}
		sq := make([]float64, len(row))
		for k, e := range row {
			sq[k] = e.Score * e.Score
		}
		mod.topM[i] = row
		mod.topM2[i] = sq
	})
}

// maxMirrorPatch bounds how many entries may leave, and how many may
// enter, a top-M prefix for its mirror row to be patched rather than
// rebuilt. It sizes two stack arrays; a batch rarely moves more than its
// own changed items through any one prefix.
const maxMirrorPatch = 16

// sameScored reports whether two Scored slices are the same array region
// (immutable data ⇒ aliased slices are bit-identical).
func sameScored(a, b []mathx.Scored) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// prefixDelta walks two score-sorted prefixes once and records the
// entries only a holds (left) and only b holds (entered). Both are
// sorted by the same strict total order, so this is a sorted-set
// difference: the head that precedes the other cannot occur later in
// the other list. An entry whose score changed shows up in both. ok is
// false when either side outgrows its array. Aliased prefixes — the GIS
// refresh left the list untouched — are equal without being read.
func prefixDelta(a, b []mathx.Scored, left, entered *[maxMirrorPatch]mathx.Scored) (nl, ne int, ok bool) {
	if sameScored(a, b) {
		return 0, 0, true
	}
	x, y := 0, 0
	for x < len(a) || y < len(b) {
		switch {
		case x < len(a) && y < len(b) && a[x] == b[y]:
			x++
			y++
		case y >= len(b) || (x < len(a) && mathx.Precedes(a[x], b[y])):
			if nl == maxMirrorPatch {
				return 0, 0, false
			}
			left[nl] = a[x]
			nl++
			x++
		default:
			if ne == maxMirrorPatch {
				return 0, 0, false
			}
			entered[ne] = b[y]
			ne++
			y++
		}
	}
	return nl, ne, true
}

// patchByID derives an id-sorted mirror row from the previous one: drop
// the entries that left the prefix, merge in the ones that entered. Ids
// are unique within a list and an id that both left and entered (its
// score moved) is dropped before it is merged, so the output is the one
// ascending-id arrangement of the new prefix — what TopNByID returns.
// left and entered are re-sorted by id in place.
func patchByID(old, left, entered []mathx.Scored) []mathx.Scored {
	mathx.SortScoredByIndex(left)
	mathx.SortScoredByIndex(entered)
	row := make([]mathx.Scored, 0, len(old)-len(left)+len(entered))
	for _, e := range old {
		if len(left) > 0 && left[0].Index == e.Index {
			left = left[1:]
			continue
		}
		for len(entered) > 0 && entered[0].Index < e.Index {
			row = append(row, entered[0])
			entered = entered[1:]
		}
		row = append(row, e)
	}
	return append(row, entered...)
}

// Config returns the configuration the model was trained with.
func (mod *Model) Config() Config { return mod.cfg }

// Stats returns offline-phase statistics.
func (mod *Model) Stats() TrainStats { return mod.stats }

// Matrix returns the training matrix.
func (mod *Model) Matrix() *ratings.Matrix { return mod.m }

// GIS exposes the global item similarity matrix (read-only).
func (mod *Model) GIS() *similarity.GIS { return mod.gis }

// Clusters exposes the user clustering (read-only).
func (mod *Model) Clusters() *cluster.Result { return mod.clusters }

// Smoother exposes the Eq. 7 smoother (read-only).
func (mod *Model) Smoother() *smoothing.Smoother { return mod.sm }

// ratingAt returns the (possibly smoothed) rating of (u, i), whether it
// is an original rating, and whether it is usable at all. With smoothing
// disabled only observed ratings are usable.
func (mod *Model) ratingAt(u, i int) (val float64, original, ok bool) {
	if mod.cfg.DisableSmoothing {
		r, found := mod.m.Rating(u, i)
		return r, true, found
	}
	v, orig := mod.sm.Rating(u, i)
	return v, orig, true
}

// ratingWithW returns the (possibly smoothed) rating of (u, i) together
// with its Eq. 11 weight — ε for an original rating, 1−ε for a smoothed
// fill. ok is false only when smoothing is disabled and the cell is
// unobserved.
func (mod *Model) ratingWithW(u, i int) (val, w11 float64, ok bool) {
	row := mod.m.UserRatings(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(row[mid].Index) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && int(row[lo].Index) == i {
		return row[lo].Value, mod.cfg.OriginalWeight, true
	}
	if mod.cfg.DisableSmoothing {
		return 0, 0, false
	}
	return mod.sm.Fill(u, i), 1 - mod.cfg.OriginalWeight, true
}

// topItems returns the top-M GIS neighbours of item i.
func (mod *Model) topItems(i int) []mathx.Scored {
	n := mod.gis.Neighbors(i)
	if len(n) > mod.cfg.M {
		n = n[:mod.cfg.M]
	}
	return n
}
