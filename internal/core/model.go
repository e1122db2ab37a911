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
	// TotalDuration is the whole phase: the three above plus the matrix
	// update and bookkeeping between them.
	TotalDuration time.Duration
	GISNeighbors  int // stored (item, neighbour) pairs
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
// locks. lockcheck enforces the //cfsf:immutable contracts below, in
// closures too; the two slot arrays are allocated by every constructor
// before publication and filled through their atomic elements.
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
	neighborCache []atomic.Pointer[[]likeMinded] //cfsf:immutable

	// recCache[u] holds user u's cached top-C recommendation ranking
	// (reccache.go). Same discipline as neighborCache: allocated cold by
	// every constructor, the slice header fixed at construction, elements
	// atomic pointers filled on the read path. nil when the cache is
	// disabled.
	recCache []atomic.Pointer[recEntry] //cfsf:immutable
}

// likeMinded is one selected neighbour of an active user.
type likeMinded struct {
	user int32
	sim  float64
}

// Train runs the offline phase of CFSF on m.
//
// Clock reads: phase durations recorded in TrainStats only; no clock value reaches predictions or replayed state.
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

// topItems returns the top-M GIS neighbours of item i.
func (mod *Model) topItems(i int) []mathx.Scored {
	n := mod.gis.Neighbors(i)
	if len(n) > mod.cfg.M {
		n = n[:mod.cfg.M]
	}
	return n
}
