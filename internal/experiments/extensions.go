package experiments

import (
	"fmt"
	"runtime"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/eval"
)

// This file holds the experiments that go beyond the paper's §V: top-N
// ranking quality, a comparison against post-2009 baselines (matrix
// factorisation, Slope One, damped biases), and the parallel-scalability
// measurement the paper lists as future work ("improve its scalability
// in a parallel manner", §VI).

// ExtensionMethods are the comparators of the beyond-paper experiments.
var ExtensionMethods = []string{"cfsf", "sur", "sir", "emdp", "mf", "slopeone", "bias", "svd"}

// TopNRow is one method's ranking quality on a split.
type TopNRow struct {
	Method       string
	PrecisionAtN float64
	RecallAtN    float64
	NDCGAtN      float64
	Users        int
}

// TopNRanking fits each method on ML_300/Given10 and measures top-10
// ranking metrics over the held-out pool.
func (e *Env) TopNRanking(methods []string, n int) ([]TopNRow, error) {
	if len(methods) == 0 {
		methods = ExtensionMethods
	}
	split := e.Split(300, 10)
	var rows []TopNRow
	for _, name := range methods {
		p := NewMethod(name)
		if err := p.Fit(split.Matrix); err != nil {
			return nil, fmt.Errorf("experiments: topn fit %s: %w", name, err)
		}
		r := eval.EvaluateRanking(p, split, eval.RankingOptions{N: n})
		rows = append(rows, TopNRow{
			Method:       name,
			PrecisionAtN: r.PrecisionAtN,
			RecallAtN:    r.RecallAtN,
			NDCGAtN:      r.NDCGAtN,
			Users:        r.Users,
		})
	}
	return rows, nil
}

// TopNTable renders ranking rows.
func TopNTable(n int, rows []TopNRow) *eval.Table {
	t := eval.NewTable(
		fmt.Sprintf("Extension — top-%d ranking quality (ML_300/Given10, relevance ≥ 4)", n),
		"Method", fmt.Sprintf("P@%d", n), fmt.Sprintf("R@%d", n), fmt.Sprintf("NDCG@%d", n), "Users")
	for _, r := range rows {
		t.AddRow(methodLabel(r.Method),
			fmt.Sprintf("%.4f", r.PrecisionAtN),
			fmt.Sprintf("%.4f", r.RecallAtN),
			fmt.Sprintf("%.4f", r.NDCGAtN),
			fmt.Sprintf("%d", r.Users))
	}
	return t
}

// ExtensionGrid compares CFSF against the post-2009 baselines on the
// ML_300 row of the protocol.
func (e *Env) ExtensionGrid() ([]Cell, *eval.Table, error) {
	methods := []string{"cfsf", "mf", "slopeone", "bias", "svd"}
	cells, err := e.RunGridCustom(methods, []int{300}, Givens, TestUsers)
	if err != nil {
		return nil, nil, err
	}
	return cells, GridTable("Extension — MAE vs post-2009 baselines (ML_300)", methods, cells), nil
}

// ScalingPoint is one parallel-throughput measurement.
type ScalingPoint struct {
	Workers    int
	Throughput float64 // predictions per second
	Speedup    float64 // vs 1 worker
}

// ParallelScaling measures CFSF online throughput as the prediction
// worker pool grows (the paper's §VI future work on parallel
// scalability). The model is trained once on ML_300/Given20; every
// worker count predicts the full target set.
func (e *Env) ParallelScaling(workerCounts []int) ([]ScalingPoint, error) {
	if len(workerCounts) == 0 {
		// Always exercise several pool sizes; on a single-core host the
		// speedup column honestly reads ~1.0x.
		workerCounts = []int{1, 2, 4, 8}
		if max := runtime.GOMAXPROCS(0); max > 8 {
			workerCounts = append(workerCounts, max)
		}
	}
	split := e.Split(300, 20)
	p := NewMethod("cfsf").(*cfsfPredictor)
	if err := p.Fit(split.Matrix); err != nil {
		return nil, err
	}
	pairs := make([]struct{ u, i int }, len(split.Targets))
	for k, tg := range split.Targets {
		pairs[k] = struct{ u, i int }{tg.User, tg.Item}
	}

	var out []ScalingPoint
	base := 0.0
	for _, w := range workerCounts {
		// Fresh model clone state is unnecessary: the neighbour cache
		// only speeds things up uniformly; warm it once before timing so
		// every worker count measures steady-state throughput.
		for _, pr := range pairs[:min(200, len(pairs))] {
			p.mod.Predict(pr.u, pr.i)
		}
		t := time.Now()
		reqs := make([]modelPair, len(pairs))
		for k, pr := range pairs {
			reqs[k] = modelPair{pr.u, pr.i}
		}
		predictAll(p, reqs, w)
		elapsed := time.Since(t).Seconds()
		tp := float64(len(pairs)) / elapsed
		if base == 0 {
			base = tp
		}
		out = append(out, ScalingPoint{Workers: w, Throughput: tp, Speedup: tp / base})
	}
	return out, nil
}

type modelPair struct{ u, i int }

// predictAll drives the predictor across a worker pool of the given
// size (1 = serial).
func predictAll(p eval.Predictor, pairs []modelPair, workers int) {
	if workers <= 1 {
		for _, pr := range pairs {
			p.Predict(pr.u, pr.i)
		}
		return
	}
	ch := make(chan modelPair, 256)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for pr := range ch {
				p.Predict(pr.u, pr.i)
			}
			done <- struct{}{}
		}()
	}
	for _, pr := range pairs {
		ch <- pr
	}
	close(ch)
	for w := 0; w < workers; w++ {
		<-done
	}
}

// ScalingTable renders throughput scaling.
func ScalingTable(points []ScalingPoint) *eval.Table {
	t := eval.NewTable("Extension — CFSF online throughput vs worker count (ML_300/Given20)",
		"Workers", "Predictions/s", "Speedup")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Workers),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ContentPoint is one content-blend measurement.
type ContentPoint struct {
	Blend float64
	MAE   map[int]float64 // by Given
}

// ContentBoost measures the content-blended GIS (paper §VI: "attributes
// of items") on ML_300: blending genre similarity into the GIS should
// help most where collaborative data is thinnest (small Given).
func (e *Env) ContentBoost(blends []float64) ([]ContentPoint, error) {
	if len(blends) == 0 {
		blends = []float64{0, 0.2, 0.4, 0.7}
	}
	features := e.Data.FeatureMatrix()
	var out []ContentPoint
	for _, blend := range blends {
		pt := ContentPoint{Blend: blend, MAE: map[int]float64{}}
		for _, g := range Givens {
			split := e.Split(300, g)
			cfg := CFSFConfig()
			cfg.ItemFeatures = features
			cfg.ContentBlend = blend
			res, err := eval.Evaluate(NewCFSF(cfg), split, eval.Options{})
			if err != nil {
				return nil, fmt.Errorf("experiments: content blend %g: %w", blend, err)
			}
			pt.MAE[g] = res.MAE
		}
		out = append(out, pt)
	}
	return out, nil
}

// ContentTable renders the content-blend sweep.
func ContentTable(points []ContentPoint) *eval.Table {
	t := eval.NewTable("Extension — content-blended GIS (ML_300)",
		"Blend", "Given5", "Given10", "Given20")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%g", p.Blend),
			fmt.Sprintf("%.4f", p.MAE[5]),
			fmt.Sprintf("%.4f", p.MAE[10]),
			fmt.Sprintf("%.4f", p.MAE[20]))
	}
	return t
}

// DiversityPoint is one MMR trade-off measurement over a panel of users.
type DiversityPoint struct {
	Tradeoff     float64 // 1 = pure relevance (plain Recommend)
	IntraListSim float64 // mean pairwise GIS similarity (lower = diverse)
	Coverage     float64 // catalogue coverage of all lists
	Novelty      float64 // mean self-information, bits
	Gini         float64 // exposure concentration
	MeanScore    float64 // mean predicted rating of recommended items
}

// Diversity measures what the MMR re-ranker (Model.RecommendDiverse)
// trades: as the relevance/diversity knob falls from 1, intra-list
// similarity and exposure concentration should fall while coverage and
// novelty rise, at a small predicted-score cost. Panel: every 5th user,
// top-10 lists, trained on the full matrix.
func (e *Env) Diversity(tradeoffs []float64) ([]DiversityPoint, error) {
	if len(tradeoffs) == 0 {
		tradeoffs = []float64{1.0, 0.7, 0.4}
	}
	mod, err := core.Train(e.Data.Matrix, CFSFConfig())
	if err != nil {
		return nil, err
	}
	panel := []int{}
	for u := 0; u < e.Data.Matrix.NumUsers(); u += 5 {
		panel = append(panel, u)
	}
	var out []DiversityPoint
	for _, tr := range tradeoffs {
		lists := eval.Lists{}
		var ils, score float64
		n := 0
		for _, u := range panel {
			recs := mod.RecommendDiverse(u, 10, tr)
			items := make([]int, len(recs))
			for k, r := range recs {
				items[k] = r.Item
				score += r.Score
				n++
			}
			lists[u] = items
			ils += mod.IntraListSimilarity(recs)
		}
		pt := DiversityPoint{
			Tradeoff:     tr,
			IntraListSim: ils / float64(len(panel)),
			Coverage:     eval.CatalogCoverage(lists, e.Data.Matrix.NumItems()),
			Novelty:      eval.Novelty(lists, e.Data.Matrix),
			Gini:         eval.GiniIndex(lists),
		}
		if n > 0 {
			pt.MeanScore = score / float64(n)
		}
		out = append(out, pt)
	}
	return out, nil
}

// DiversityTable renders the MMR trade-off sweep.
func DiversityTable(points []DiversityPoint) *eval.Table {
	t := eval.NewTable("Extension — MMR diversity re-ranking (top-10, 100-user panel)",
		"Tradeoff", "IntraListSim", "Coverage", "Novelty (bits)", "Gini", "MeanScore")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.1f", p.Tradeoff),
			fmt.Sprintf("%.4f", p.IntraListSim),
			fmt.Sprintf("%.3f", p.Coverage),
			fmt.Sprintf("%.2f", p.Novelty),
			fmt.Sprintf("%.3f", p.Gini),
			fmt.Sprintf("%.3f", p.MeanScore))
	}
	return t
}
