// Package cluster implements the user clustering step of the CFSF
// offline phase (paper §IV-C): K-means over user rating profiles, using
// the PCC similarity of Eq. 6 (converted to a distance) between a user's
// sparse rating vector and a cluster centroid. K-means++ seeding and
// empty-cluster repair keep the result stable; assignment is parallel
// over users and fully deterministic for a fixed seed, and a fit whose
// assignment provably cycles stops sweeping with the result the
// iteration cap would have given.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Metric selects the distance used between a user and a centroid.
type Metric int

const (
	// PCCDistance is 1 − PCC(user, centroid), the paper's choice (Eq. 6).
	PCCDistance Metric = iota
	// Euclidean is the RMS difference over the items the user rated,
	// provided as a baseline/ablation metric.
	Euclidean
)

func (m Metric) String() string {
	switch m {
	case PCCDistance:
		return "pcc"
	case Euclidean:
		return "euclidean"
	default:
		return "unknown"
	}
}

// DefaultMaxIter caps Run's Lloyd iterations when Options.MaxIter is unset.
const DefaultMaxIter = 100

// Options configures Run.
type Options struct {
	K       int    // number of clusters (paper default C = 30)
	MaxIter int    // iteration cap (0 = DefaultMaxIter)
	Seed    int64  // PRNG seed for k-means++ initialisation
	Metric  Metric // user↔centroid distance
	Workers int    // parallelism for the assignment step (<=0 = GOMAXPROCS)
}

// Result is a completed clustering.
type Result struct {
	// Assign maps each user to a cluster in [0, K).
	Assign []int
	// Members lists the users of each cluster.
	Members [][]int
	// Mean[c][i] is the average rating cluster c's members gave item i
	// (meaningful only where Count[c][i] > 0).
	Mean [][]float64
	// Count[c][i] is how many members of cluster c rated item i.
	Count [][]int32
	// Iterations is the sweep at which the fit converged, counted from 1,
	// or MaxIter+1 for a fit the cap stopped: it counts the sweep the cap
	// cut off. It is persisted, so the count stays as it is; Fit reports
	// the sweeps that actually ran.
	Iterations int
	// Inertia is the summed distance of each user to its centroid at
	// convergence (lower is tighter).
	Inertia float64
	// K is the cluster count the result was built with.
	K int

	fit Fit
	// overall[c] is centroid c's mean over the items it covers, the
	// centring term of every user↔centroid distance Nearest,
	// ReassignUsers and RefreshUsers measure. Run, ReassignUsers and
	// RefreshUsers fill it; unexported, so gob leaves it off the wire and a
	// decoded Result computes it on use (centroidMeans).
	overall []float64
}

// Fit says how Run reached its Result. It is not persisted: a Result that
// was decoded, or derived by ReassignUsers or RefreshUsers, reports the
// zero Fit.
type Fit struct {
	// Swept is how many Lloyd sweeps Run executed.
	Swept int
	// Capped is set when the fit stopped at MaxIter, not at a fixed point.
	Capped bool
	// Period, when nonzero, is the length of the assignment cycle that let
	// Run stop sweeping early, first seen at sweep From (counted from 1):
	// the assignment after sweep From+Period equals the one after From.
	Period, From int
}

// Fit reports how Run reached r.
func (r *Result) Fit() Fit { return r.fit }

// Summary is a log line's account of the fit: "K-means 12 iterations",
// "K-means 100 iterations, hit the cap", or, when a proven cycle cut the
// sweeps short, "K-means 100 iterations, hit the cap: 6 swept, period 2
// from sweep 4".
func (r *Result) Summary() string {
	f := r.fit
	if !f.Capped {
		return fmt.Sprintf("K-means %d iterations", r.Iterations)
	}
	s := fmt.Sprintf("K-means %d iterations, hit the cap", r.Iterations-1)
	if f.Period > 0 {
		s += fmt.Sprintf(": %d swept, period %d from sweep %d", f.Swept, f.Period, f.From)
	}
	return s
}

// Check validates a decoded clustering against the matrix it is to serve:
// K clusters with K member lists, mean rows and count rows; every user
// assigned to a cluster in [0, K); Members the ascending inverse of
// Assign; every mean and count row item-sized. Everything that indexes by
// cluster or user trusts these, so a load refuses a clustering that breaks
// one instead of panicking on it later. The error names the user or the
// cluster at fault.
func (r *Result) Check(numUsers, numItems int) error {
	if r.K < 1 || len(r.Members) != r.K || len(r.Mean) != r.K || len(r.Count) != r.K {
		return fmt.Errorf("cluster: K = %d with %d member lists, %d mean rows, %d count rows",
			r.K, len(r.Members), len(r.Mean), len(r.Count))
	}
	if len(r.Assign) != numUsers {
		return fmt.Errorf("cluster: %d assignments for %d users", len(r.Assign), numUsers)
	}
	for u, c := range r.Assign {
		if c < 0 || c >= r.K {
			return fmt.Errorf("cluster: user %d assigned to cluster %d, outside [0, %d)", u, c, r.K)
		}
	}
	members := 0
	for c, list := range r.Members {
		for j, u := range list {
			if u < 0 || u >= numUsers || r.Assign[u] != c {
				return fmt.Errorf("cluster: cluster %d lists user %d, who is not assigned to it", c, u)
			}
			if j > 0 && u <= list[j-1] {
				return fmt.Errorf("cluster: cluster %d lists user %d after user %d", c, u, list[j-1])
			}
		}
		members += len(list)
		if len(r.Mean[c]) != numItems || len(r.Count[c]) != numItems {
			return fmt.Errorf("cluster: cluster %d has %d means and %d counts for %d items",
				c, len(r.Mean[c]), len(r.Count[c]), numItems)
		}
	}
	if members != numUsers {
		for u, c := range r.Assign {
			if _, ok := slices.BinarySearch(r.Members[c], u); !ok {
				return fmt.Errorf("cluster: user %d is assigned to cluster %d but not listed in it", u, c)
			}
		}
	}
	return nil
}

// maxPeriod bounds the assignment cycles Run recognises to periods in
// [2, maxPeriod); it is also the length of the assignment history.
const maxPeriod = 8

// Run clusters the users of m. It returns an error for an invalid K.
func Run(m *ratings.Matrix, opts Options) (*Result, error) {
	p := m.NumUsers()
	if opts.K <= 0 {
		return nil, fmt.Errorf("cluster: K must be positive, got %d", opts.K)
	}
	k := opts.K
	if k > p {
		k = p
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	c := newCentroids(k, m.NumItems(), p)
	c.seedPlusPlus(m, rng, opts)

	assign := make([]int, p)
	for i := range assign {
		assign[i] = -1
	}
	dist := make([]float64, p)
	// table[u*k+cl] caches the user↔centroid distances across sweeps;
	// the centroids track which of its columns they have invalidated.
	table := make([]float64, p*k)

	// A sweep is a function of the centroids it starts from, and after a
	// sweep in which repairEmpty moved nobody the centroids are a function
	// of the assignment (the invariant stated on fitted). So once the
	// assignment after sweep t equals the one after sweep t−p, with no
	// repair in sweeps t−p..t, the centroids after t equal those after t−p
	// and every later sweep repeats the one p before it: sweeping on to the
	// cap ends in the state (MaxIter−1−t) mod p sweeps from here.
	var hist history
	lastRepair := -1
	repaired := false
	fit := Fit{Capped: true}
	iter := 0
	for ; iter < maxIter; iter++ {
		fit.Swept++
		moved := assignAll(m, c, table, assign, dist, opts)
		c.recompute(m, assign)
		if repaired = c.repairEmpty(m, assign, dist); repaired {
			lastRepair = iter
		}
		if moved == 0 {
			fit.Capped = false
			break
		}
		if fit.Period > 0 {
			continue
		}
		if per := hist.period(assign, iter, lastRepair); per > 0 {
			fit.Period, fit.From = per, iter-per+1
			// Skip whole periods: the sweeps left then end on the cap's state.
			iter = maxIter - 1 - (maxIter-1-iter)%per
		}
	}
	// A repair seeds the centroid it refills but leaves the donor counting
	// the user it gave up until the next recompute. When the cap ends the
	// loop right after one, that recompute is this one, so every centroid
	// is the mean of its members (Derive), as Result.Mean says.
	if repaired {
		c.recompute(m, assign)
	}

	res := &Result{
		Assign:     assign,
		Members:    make([][]int, k),
		Mean:       c.mean,
		Count:      c.count,
		Iterations: iter + 1,
		K:          k,
		fit:        fit,
	}
	for u, cl := range assign {
		res.Members[cl] = append(res.Members[cl], u)
		res.Inertia += dist[u]
	}
	res.overall = res.centroidMeans()
	return res, nil
}

// history holds the assignment after each of the last maxPeriod sweeps,
// sweep s in slot s mod maxPeriod.
type history [maxPeriod][]int

// period returns the least p in [2, maxPeriod) for which assign, the
// assignment after sweep t, equals the one after sweep t−p with no repair
// in sweeps t−p..t (lastRepair is the latest sweep that had one), or 0.
// It then records assign as sweep t's, over sweep t−maxPeriod's.
func (h *history) period(assign []int, t, lastRepair int) int {
	found := 0
	for p := 2; p < maxPeriod && t-p > lastRepair; p++ {
		if slices.Equal(assign, h[(t-p)%maxPeriod]) {
			found = p
			break
		}
	}
	slot := &h[t%maxPeriod]
	*slot = append((*slot)[:0], assign...)
	return found
}

// centroids holds per-cluster per-item rating means and support counts.
type centroids struct {
	k     int
	q     int
	mean  [][]float64
	count [][]int32
	// overall mean of each centroid over its covered items, used to
	// centre the centroid in the PCC computation.
	overall []float64
	// stale[cl] is set when centroid cl may differ from the one the
	// distance table's column cl was measured against; assignAll
	// re-measures exactly those columns and clears the flags.
	stale []bool
	// fitted is the assignment recompute last built the centroids from
	// (-1 = never), and seeded[cl] marks a centroid setFromUser has
	// overwritten since. recompute is a pure function of each cluster's
	// member set, so a centroid that is neither seeded nor fitted to a
	// different member set comes out of it bit-for-bit as it went in.
	fitted []int
	seeded []bool
}

func newCentroids(k, q, p int) *centroids {
	c := &centroids{k: k, q: q,
		mean:    make([][]float64, k),
		count:   make([][]int32, k),
		overall: make([]float64, k),
		stale:   make([]bool, k),
		fitted:  make([]int, p),
		seeded:  make([]bool, k),
	}
	for i := 0; i < k; i++ {
		c.mean[i] = make([]float64, q)
		c.count[i] = make([]int32, q)
	}
	for u := range c.fitted {
		c.fitted[u] = -1
	}
	return c
}

// setFromUser initialises centroid cl to a single user's profile.
func (c *centroids) setFromUser(m *ratings.Matrix, cl, u int) {
	c.stale[cl], c.seeded[cl] = true, true
	mean, count := c.mean[cl], c.count[cl]
	for i := range mean {
		mean[i], count[i] = 0, 0
	}
	var sum float64
	row := m.UserRatings(u)
	for _, e := range row {
		mean[e.Index] = e.Value
		count[e.Index] = 1
		sum += e.Value
	}
	if len(row) > 0 {
		c.overall[cl] = sum / float64(len(row))
	}
}

// distance computes the user↔centroid distance per the chosen metric over
// the items the user rated that the centroid covers. Users with no
// overlap get the maximum distance for the metric.
func (c *centroids) distance(m *ratings.Matrix, u, cl int, metric Metric) float64 {
	mean, count := c.mean[cl], c.count[cl]
	switch metric {
	case Euclidean:
		var ss float64
		n := 0
		for _, e := range m.UserRatings(u) {
			if count[e.Index] == 0 {
				continue
			}
			d := e.Value - mean[e.Index]
			ss += d * d
			n++
		}
		if n == 0 {
			return math.Inf(1)
		}
		return math.Sqrt(ss / float64(n))
	default: // PCCDistance
		um := m.UserMean(u)
		cm := c.overall[cl]
		var sxy, sxx, syy float64
		n := 0
		for _, e := range m.UserRatings(u) {
			if count[e.Index] == 0 {
				continue
			}
			dx := e.Value - um
			dy := mean[e.Index] - cm
			sxy += dx * dy
			sxx += dx * dx
			syy += dy * dy
			n++
		}
		if n == 0 || sxx == 0 || syy == 0 {
			return 1 // PCC 0 → neutral distance
		}
		return 1 - sxy/(math.Sqrt(sxx)*math.Sqrt(syy)) // in [0, 2]
	}
}

// seedPlusPlus runs k-means++ initialisation.
func (c *centroids) seedPlusPlus(m *ratings.Matrix, rng *rand.Rand, opts Options) {
	p := m.NumUsers()
	first := rng.Intn(p)
	c.setFromUser(m, 0, first)
	d2 := make([]float64, p)
	// best[u] is u's distance to the nearest seed chosen so far; each
	// round only has to measure the newest seed against it.
	best := make([]float64, p)
	for u := range best {
		best[u] = math.Inf(1)
	}
	for cl := 1; cl < c.k; cl++ {
		var total float64
		for u := 0; u < p; u++ {
			if d := c.distance(m, u, cl-1, opts.Metric); d < best[u] {
				best[u] = d
			}
			near := best[u]
			if math.IsInf(near, 1) {
				near = 2
			}
			d2[u] = near * near
			total += d2[u]
		}
		pick := 0
		if total > 0 {
			target := rng.Float64() * total
			acc := 0.0
			for u := 0; u < p; u++ {
				acc += d2[u]
				if acc >= target {
					pick = u
					break
				}
			}
		} else {
			pick = rng.Intn(p)
		}
		c.setFromUser(m, cl, pick)
	}
}

// assignAll reassigns every user to its nearest centroid, returning how
// many users changed cluster. dist[u] receives the chosen distance. Only
// the stale centroids' columns of the distance table are re-measured;
// the rest still hold what distance would return.
func assignAll(m *ratings.Matrix, c *centroids, table []float64, assign []int, dist []float64, opts Options) int {
	p := m.NumUsers()
	movedPer := parallel.MapReduce(p, opts.Workers, func() int { return 0 }, func(moved, u int) int {
		row := table[u*c.k : (u+1)*c.k]
		best, bestCl := math.Inf(1), 0
		for cl := range row {
			if c.stale[cl] {
				row[cl] = c.distance(m, u, cl, opts.Metric)
			}
			if d := row[cl]; d < best {
				best, bestCl = d, cl
			}
		}
		dist[u] = best
		if math.IsInf(best, 1) {
			dist[u] = 2
		}
		if assign[u] != bestCl {
			assign[u] = bestCl
			moved++
		}
		return moved
	})
	for cl := range c.stale {
		c.stale[cl] = false
	}
	moved := 0
	for _, m := range movedPer {
		moved += m
	}
	return moved
}

// recompute refits the centroids to the assignment. It first marks stale
// the centroids the assignment changes — those that gained or lost a
// member since the last recompute and those seeded in between — and then
// rebuilds exactly those: by the invariant stated on fitted, every other
// centroid would come out of a rebuild bit-for-bit as it went in. Members
// are accumulated in ascending user order, as a rebuild of all would.
func (c *centroids) recompute(m *ratings.Matrix, assign []int) {
	for u, cl := range assign {
		if was := c.fitted[u]; was != cl {
			c.stale[cl] = true
			if was >= 0 {
				c.stale[was] = true
			}
			c.fitted[u] = cl
		}
	}
	for cl, seeded := range c.seeded {
		if seeded {
			c.stale[cl], c.seeded[cl] = true, false
		}
	}
	for cl, stale := range c.stale {
		if !stale {
			continue
		}
		mean, count := c.mean[cl], c.count[cl]
		for i := range mean {
			mean[i], count[i] = 0, 0
		}
	}
	for u, cl := range assign {
		if !c.stale[cl] {
			continue
		}
		mean, count := c.mean[cl], c.count[cl]
		for _, e := range m.UserRatings(u) {
			mean[e.Index] += e.Value
			count[e.Index]++
		}
	}
	for cl, stale := range c.stale {
		if !stale {
			continue
		}
		mean, count := c.mean[cl], c.count[cl]
		var sum float64
		n := 0
		for i := range mean {
			if count[i] > 0 {
				mean[i] /= float64(count[i])
				sum += mean[i]
				n++
			}
		}
		if n > 0 {
			c.overall[cl] = sum / float64(n)
		} else {
			c.overall[cl] = 0
		}
	}
}

// repairEmpty moves the globally farthest user into each empty cluster so
// every cluster stays populated (smoothing needs non-empty clusters). It
// reports whether it moved anyone.
func (c *centroids) repairEmpty(m *ratings.Matrix, assign []int, dist []float64) (moved bool) {
	size := make([]int, c.k)
	for _, cl := range assign {
		size[cl]++
	}
	for cl := 0; cl < c.k; cl++ {
		if size[cl] > 0 {
			continue
		}
		far, farU := -1.0, -1
		for u := range assign {
			if size[assign[u]] <= 1 {
				continue // do not empty another cluster
			}
			if dist[u] > far {
				far, farU = dist[u], u
			}
		}
		if farU < 0 {
			continue
		}
		size[assign[farU]]--
		assign[farU] = cl
		size[cl]++
		c.setFromUser(m, cl, farU)
		dist[farU] = 0
		moved = true
	}
	return moved
}

// Derive fills r's Members, Mean and Count from its Assign and K on the
// users' rows (row(u) is user u's ratings, every item below numItems):
// Members in ascending user order, and each centroid's Mean and Count
// accumulated over its members in ascending user order — the order Run's
// recompute, ReassignUsers and RefreshUsers accumulate in — so on the
// matrix a clustering was fitted or refreshed on, Derive rebuilds its
// centroids bit for bit. A model file stores the assignment and Derive
// rebuilds the rest. It refuses, naming the user, an assignment outside
// [0, K), and a K below 1.
func (r *Result) Derive(numItems int, row func(u int) []ratings.Entry) error {
	if r.K < 1 {
		return fmt.Errorf("cluster: K = %d", r.K)
	}
	for u, c := range r.Assign {
		if c < 0 || c >= r.K {
			return fmt.Errorf("cluster: user %d assigned to cluster %d, outside [0, %d)", u, c, r.K)
		}
	}
	r.Members = make([][]int, r.K)
	r.Mean = make([][]float64, r.K)
	r.Count = make([][]int32, r.K)
	for c := range r.Mean {
		r.Mean[c] = make([]float64, numItems)
		r.Count[c] = make([]int32, numItems)
	}
	for u, c := range r.Assign {
		r.Members[c] = append(r.Members[c], u)
		mean, count := r.Mean[c], r.Count[c]
		for _, e := range row(u) {
			mean[e.Index] += e.Value
			count[e.Index]++
		}
	}
	for c, mean := range r.Mean {
		for i, n := range r.Count[c] {
			if n > 0 {
				mean[i] /= float64(n)
			}
		}
	}
	r.overall = make([]float64, r.K)
	for c := range r.overall {
		r.overall[c] = r.centroidMean(c)
	}
	return nil
}
