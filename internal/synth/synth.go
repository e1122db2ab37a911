// Package synth generates MovieLens-like rating datasets with the
// statistical structure the CFSF paper's mechanisms exploit. The real
// GroupLens download is unavailable offline, so experiments run on this
// generator instead (see DESIGN.md §2 for the substitution argument):
//
//   - users are drawn from taste archetypes, so K-means user clusters and
//     "like-minded users" exist;
//   - items carry genre mixtures, so item–item PCC similarity (the GIS)
//     has real signal;
//   - every user has a personal rating-style bias, reproducing the
//     "diversity in user rating styles" that the smoothing strategy is
//     designed to remove;
//   - item popularity follows a Zipf law, giving the long-tail sparsity
//     pattern of commercial matrices;
//   - ratings are 1..5 integers at a configurable density
//     (default ≈ 9.4%, the paper's Table I).
//
// Generation is fully deterministic for a given Config (seeded PRNG, no
// global state), so every experiment in this repository is reproducible.
package synth

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"cfsf/internal/ratings"
)

// Config parameterises the generator. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Users      int   // number of users (paper: 500)
	Items      int   // number of items (paper: 1000)
	Archetypes int   // latent taste archetypes (drives the "true" user-cluster count)
	Genres     int   // item genre vocabulary (MovieLens has 18+1)
	Seed       int64 // PRNG seed; equal configs generate equal datasets

	MinPerUser  int     // minimum ratings per user (paper: ≥ 40)
	MeanPerUser float64 // target average ratings per user (paper: 94.4)

	AffinityGain    float64 // how strongly taste affinity moves the rating
	ArchetypeSpread float64 // per-user perturbation around the archetype preference
	UserBiasStd     float64 // per-user rating-style offset (smoothing target)
	// UserScaleStd is the log-std of the per-user rating-style scale: an
	// "extreme" user (scale > 1) swings to 1s and 5s where a "middle"
	// user (scale < 1) stays near their mean. Together with UserBiasStd
	// this is the "diversity in user rating styles" the paper's
	// smoothing strategy targets.
	UserScaleStd   float64
	ItemBiasStd    float64 // per-item quality offset
	NoiseStd       float64 // iid rating noise
	JunkProb       float64 // probability a rating is pure noise (misclick/mood)
	PopularitySkew float64 // Zipf exponent for item popularity
	AffinitySelect float64 // how strongly users pick items they will like

	// DriftStd makes preferences shift over time (the "shifts of user
	// preferences" of the paper's §VI): each *archetype* carries a
	// per-genre N(0, DriftStd) trend vector, and every user's effective
	// preference moves along their archetype's trend as the global
	// timeline advances — taste trends, not private random walks, so
	// recent ratings from anyone carry information about the present.
	// 0 disables drift. Ratings always carry synthetic timestamps;
	// drift and timestamps draw from a separate PRNG stream so
	// DriftStd=0 reproduces the exact dataset of earlier versions.
	DriftStd float64
}

// DefaultConfig mirrors the paper's Table I statistics.
func DefaultConfig() Config {
	return Config{
		Users:           500,
		Items:           1000,
		Archetypes:      30,
		Genres:          18,
		Seed:            1,
		MinPerUser:      40,
		MeanPerUser:     94.4,
		AffinityGain:    2.0,
		ArchetypeSpread: 0.10,
		UserBiasStd:     0.55,
		UserScaleStd:    0.35,
		ItemBiasStd:     0.25,
		NoiseStd:        0.45,
		JunkProb:        0.03,
		PopularitySkew:  0.8,
		AffinitySelect:  1.0,
	}
}

// Dataset is a generated matrix plus the latent structure used to build
// it, which examples and tests can use as ground truth.
type Dataset struct {
	Matrix *ratings.Matrix
	// ItemGenres[i] lists the genre ids of item i (1 or 2 genres).
	ItemGenres [][]int
	// GenreNames gives a display name per genre id.
	GenreNames []string
	// UserArchetype[u] is the taste archetype user u was drawn from.
	UserArchetype []int
	// ItemTitles gives a synthetic display title per item.
	ItemTitles []string
	Config     Config
}

var genreVocabulary = []string{
	"Action", "Adventure", "Animation", "Children", "Comedy", "Crime",
	"Documentary", "Drama", "Fantasy", "FilmNoir", "Horror", "Musical",
	"Mystery", "Romance", "SciFi", "Thriller", "War", "Western", "IMAX",
	"Biography", "Sport", "History", "Family", "Short",
}

// Generate builds a dataset from cfg. It panics only on programmer error
// (invalid configuration is reported as an error).
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Users <= 0 || cfg.Items <= 0 {
		return nil, fmt.Errorf("synth: need positive Users and Items, got %d, %d", cfg.Users, cfg.Items)
	}
	if cfg.Archetypes <= 0 {
		return nil, fmt.Errorf("synth: need positive Archetypes, got %d", cfg.Archetypes)
	}
	if cfg.Genres <= 0 || cfg.Genres > len(genreVocabulary) {
		return nil, fmt.Errorf("synth: Genres must be in [1,%d], got %d", len(genreVocabulary), cfg.Genres)
	}
	if cfg.MeanPerUser < float64(cfg.MinPerUser) {
		return nil, fmt.Errorf("synth: MeanPerUser %.1f below MinPerUser %d", cfg.MeanPerUser, cfg.MinPerUser)
	}
	if cfg.MinPerUser > cfg.Items {
		return nil, fmt.Errorf("synth: MinPerUser %d exceeds Items %d", cfg.MinPerUser, cfg.Items)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	// Archetype preference vectors over genres, in [-1, 1].
	arch := make([][]float64, cfg.Archetypes)
	for a := range arch {
		arch[a] = make([]float64, cfg.Genres)
		for g := range arch[a] {
			arch[a][g] = rng.Float64()*2 - 1
		}
	}

	// Items: genre mixture, quality bias, Zipf popularity weight.
	itemGenres := make([][]int, cfg.Items)
	itemBias := make([]float64, cfg.Items)
	popWeight := make([]float64, cfg.Items)
	itemTitles := make([]string, cfg.Items)
	perm := rng.Perm(cfg.Items) // popularity rank assignment
	for i := 0; i < cfg.Items; i++ {
		g1 := rng.Intn(cfg.Genres)
		itemGenres[i] = []int{g1}
		if rng.Float64() < 0.4 {
			g2 := rng.Intn(cfg.Genres)
			if g2 != g1 {
				itemGenres[i] = append(itemGenres[i], g2)
			}
		}
		itemBias[i] = rng.NormFloat64() * cfg.ItemBiasStd
		rank := perm[i] + 1
		popWeight[i] = 1 / math.Pow(float64(rank), cfg.PopularitySkew)
		itemTitles[i] = fmt.Sprintf("%s Movie #%03d", genreVocabulary[g1], i+1)
	}

	// Users: archetype with small personal perturbation, style bias,
	// activity level.
	userPref := make([][]float64, cfg.Users)
	userArch := make([]int, cfg.Users)
	userBias := make([]float64, cfg.Users)
	userScale := make([]float64, cfg.Users)
	userCount := make([]int, cfg.Users)
	extraMean := cfg.MeanPerUser - float64(cfg.MinPerUser)
	for u := 0; u < cfg.Users; u++ {
		a := rng.Intn(cfg.Archetypes)
		userArch[u] = a
		pref := make([]float64, cfg.Genres)
		for g := range pref {
			pref[g] = clamp(arch[a][g]+rng.NormFloat64()*cfg.ArchetypeSpread, -1, 1)
		}
		userPref[u] = pref
		userBias[u] = rng.NormFloat64() * cfg.UserBiasStd
		userScale[u] = math.Exp(rng.NormFloat64() * cfg.UserScaleStd)
		n := cfg.MinPerUser + int(rng.ExpFloat64()*extraMean)
		if n > cfg.Items {
			n = cfg.Items
		}
		userCount[u] = n
	}

	affinity := func(u, i int) float64 {
		s := 0.0
		for _, g := range itemGenres[i] {
			s += userPref[u][g]
		}
		return s / float64(len(itemGenres[i]))
	}

	b := ratings.NewBuilder(cfg.Users, cfg.Items)
	keys := make([]float64, cfg.Items)
	order := make([]int, cfg.Items)
	// Separate stream for temporal structure so the rating draws are
	// unchanged when drift is off.
	trng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	const epoch = int64(1_000_000_000)
	const horizon = int64(365 * 24 * 3600) // one year of rating activity
	// Drift as interpolation: each archetype's preference moves from its
	// start vector toward a drifted target over the year, so effective
	// preferences never saturate at the clamp boundary.
	var archDrift [][]float64
	if cfg.DriftStd > 0 {
		archDrift = make([][]float64, cfg.Archetypes)
		for a := range archDrift {
			archDrift[a] = make([]float64, cfg.Genres)
			for g := range archDrift[a] {
				target := clamp(arch[a][g]+trng.NormFloat64()*cfg.DriftStd, -1, 1)
				archDrift[a][g] = target - arch[a][g]
			}
		}
	}
	for u := 0; u < cfg.Users; u++ {
		// Weighted sampling without replacement via the exponential-keys
		// trick: item weight = popularity × exp(selection-affinity); the
		// n smallest -ln(U)/w win.
		for i := 0; i < cfg.Items; i++ {
			w := popWeight[i] * math.Exp(cfg.AffinitySelect*affinity(u, i))
			keys[i] = -math.Log(1-rng.Float64()) / w
			order[i] = i
		}
		n := userCount[u]
		smallestKeys(order, keys, n)

		var drift []float64
		if archDrift != nil {
			drift = archDrift[userArch[u]]
		}
		// Users rate throughout the shared one-year horizon; timestamps
		// advance from a random start in its first tenth.
		ts := epoch + int64(trng.Intn(int(horizon/10)))
		step := (horizon - (ts - epoch)) / int64(n+1)
		for k := 0; k < n; k++ {
			i := order[k]
			aff := affinity(u, i)
			if drift != nil {
				// Global trend progress at this rating's moment.
				p := float64(ts-epoch) / float64(horizon)
				var s float64
				for _, g := range itemGenres[i] {
					s += clamp(userPref[u][g]+p*drift[g], -1, 1)
				}
				aff = s / float64(len(itemGenres[i]))
			}
			var r float64
			if rng.Float64() < cfg.JunkProb {
				// Heavy-tail noise: misclicks and mood ratings carry no
				// signal at all; smoothing dilutes them, single original
				// ratings do not.
				r = float64(1 + rng.Intn(5))
			} else {
				raw := 3.05 + userBias[u] + userScale[u]*(itemBias[i]+
					cfg.AffinityGain*aff+
					rng.NormFloat64()*cfg.NoiseStd)
				r = math.Round(clamp(raw, 1, 5))
			}
			if err := b.AddWithTime(u, i, r, ts); err != nil {
				return nil, err
			}
			jitter := step / 2
			if jitter < 1 {
				jitter = 1
			}
			ts += step/2 + int64(trng.Intn(int(jitter)+1))
		}
	}

	return &Dataset{
		Matrix:        b.Build(),
		ItemGenres:    itemGenres,
		GenreNames:    append([]string(nil), genreVocabulary[:cfg.Genres]...),
		UserArchetype: userArch,
		ItemTitles:    itemTitles,
		Config:        cfg,
	}, nil
}

// smallestKeys puts the items with the n smallest keys into order[:n] in
// ascending key order — the order sort.Slice over the identity
// permutation gives them, which is what the generator's streams were
// drawn against. order must hold that identity permutation on entry.
// When the n smallest keys and the next one are all distinct, that order
// is the only ascending one, so selecting the n and sorting only them
// reproduces it. A tie among them, or a NaN anywhere (no comparison
// orders it), leaves the order to sort.Slice's tie-breaking, and then the
// whole array is sorted with it, as before; smallestKeys reports whether
// it had to.
func smallestKeys(order []int, keys []float64, n int) (fullSort bool) {
	if !slices.ContainsFunc(keys, math.IsNaN) {
		if n < len(order) {
			selectNth(order, keys, n)
		}
		slices.SortFunc(order[:n], func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
		distinct := true
		for k := 1; k <= n && k < len(order) && distinct; k++ {
			distinct = keys[order[k-1]] < keys[order[k]]
		}
		if distinct {
			return false
		}
		for i := range order {
			order[i] = i
		}
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	return true
}

// selectNth permutes order so that order[k] is the item with the k-th
// smallest key (from 0), no item before it has a larger key and no item
// after it a smaller one (Hoare's FIND).
func selectNth(order []int, keys []float64, k int) {
	lo, hi := 0, len(order)-1
	for lo < hi {
		pivot := keys[order[k]]
		i, j := lo, hi
		for i <= j {
			for keys[order[i]] < pivot {
				i++
			}
			for pivot < keys[order[j]] {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// FeatureMatrix returns a one-hot genre feature vector per item, the
// "attributes of items" input for the content-boosted GIS (paper §VI
// future work). Items with two genres get 1/√2 weight on each.
func (d *Dataset) FeatureMatrix() [][]float64 {
	out := make([][]float64, len(d.ItemGenres))
	dim := len(d.GenreNames)
	for i, genres := range d.ItemGenres {
		v := make([]float64, dim)
		w := 1.0
		if len(genres) > 1 {
			w = 1 / math.Sqrt2
		}
		for _, g := range genres {
			v[g] = w
		}
		out[i] = v
	}
	return out
}

// MustGenerate is Generate that panics on error, for use with known-good
// configurations in examples and benchmarks.
func MustGenerate(cfg Config) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
