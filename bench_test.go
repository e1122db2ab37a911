// Benchmarks regenerating every table and figure of the paper (§V) plus
// micro-benchmarks of the offline and online phases. Experiment benches
// subsample the testset to 25% so `go test -bench=.` finishes in minutes;
// cmd/cfsf-bench runs the same experiments at full size and EXPERIMENTS.md
// records both.
//
// Accuracy results are attached to the benchmark output via
// b.ReportMetric (MAE_* fields), so one `-bench` run shows both the speed
// and the reproduced numbers.
package cfsf_test

import (
	"bytes"
	"sync"
	"testing"

	"cfsf"
	"cfsf/internal/cluster"
	"cfsf/internal/core"
	"cfsf/internal/experiments"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
	"cfsf/internal/smoothing"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns the shared benchmark environment (dataset + cached splits,
// 25% of the test targets).
func env() *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv()
		benchEnv.TargetFraction = 0.25
	})
	return benchEnv
}

// --- Table benches -------------------------------------------------------

func BenchmarkTableI_DatasetStats(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		_ = e.TableI().String()
	}
	m := e.Data.Matrix
	b.ReportMetric(float64(m.NumRatings()), "ratings")
	b.ReportMetric(100*m.Density(), "density_%")
}

func BenchmarkTableII_CFSFvsSURvsSIR(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		cells, _, err := e.TableII()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportGrid(b, cells)
		}
	}
}

func BenchmarkTableIII_StateOfTheArt(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		cells, _, err := e.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportGrid(b, cells)
		}
	}
}

// reportGrid attaches the ML_300 row of a grid as benchmark metrics.
func reportGrid(b *testing.B, cells []experiments.Cell) {
	for _, c := range cells {
		if c.TrainSize == 300 && c.Given == 10 {
			b.ReportMetric(c.MAE, "MAE_"+c.Method+"_ML300_G10")
		}
	}
}

// --- Figure benches ------------------------------------------------------

func benchCurves(b *testing.B, run func() ([]experiments.FigureCurve, error), label string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		curves, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range curves {
				if c.Given != 10 {
					continue
				}
				best, worst := c.Points[0], c.Points[0]
				for _, p := range c.Points {
					if p.MAE < best.MAE {
						best = p
					}
					if p.MAE > worst.MAE {
						worst = p
					}
				}
				b.ReportMetric(best.Param, label+"_best_param_G10")
				b.ReportMetric(best.MAE, label+"_best_MAE_G10")
				b.ReportMetric(worst.MAE, label+"_worst_MAE_G10")
			}
		}
	}
}

func BenchmarkFig2_SweepM(b *testing.B)      { benchCurves(b, env().Fig2M, "M") }
func BenchmarkFig3_SweepK(b *testing.B)      { benchCurves(b, env().Fig3K, "K") }
func BenchmarkFig4_SweepC(b *testing.B)      { benchCurves(b, env().Fig4C, "C") }
func BenchmarkFig6_SweepLambda(b *testing.B) { benchCurves(b, env().Fig6Lambda, "lambda") }
func BenchmarkFig7_SweepDelta(b *testing.B)  { benchCurves(b, env().Fig7Delta, "delta") }
func BenchmarkFig8_SweepW(b *testing.B)      { benchCurves(b, env().Fig8W, "w") }

func BenchmarkFig5_ResponseTime(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		points, err := e.Fig5ResponseTime()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var cfsfMS, scbMS float64
			for _, p := range points {
				if p.TrainSize == 300 && p.Fraction == 1.0 {
					if p.Method == "cfsf" {
						cfsfMS = p.Millis
					} else {
						scbMS = p.Millis
					}
				}
			}
			b.ReportMetric(cfsfMS, "cfsf_ML300_100%_ms")
			b.ReportMetric(scbMS, "scbpcc_ML300_100%_ms")
			if cfsfMS > 0 {
				b.ReportMetric(scbMS/cfsfMS, "speedup_x")
			}
		}
	}
}

// --- Ablation benches (DESIGN.md §5) --------------------------------------

func benchAblation(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	e := env()
	split := e.Split(300, 10)
	cfg := experiments.CFSFConfig()
	mutate(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := experiments.NewCFSF(cfg)
		if err := p.Fit(split.Matrix); err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, tg := range split.Targets {
			sum += abs(p.Predict(tg.User, tg.Item) - tg.Actual)
		}
		if i == 0 {
			b.ReportMetric(sum/float64(len(split.Targets)), "MAE")
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkAblation_Default(b *testing.B) {
	benchAblation(b, func(*core.Config) {})
}

func BenchmarkAblation_NoSmoothing(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableSmoothing = true })
}

func BenchmarkAblation_FullUserSearch(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.FullUserSearch = true })
}

func BenchmarkAblation_NoSUIR(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Delta = 0 })
}

func BenchmarkAblation_CosineGIS(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.GIS.Metric = similarity.Cosine })
}

func BenchmarkAblation_NoCache(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableCache = true })
}

// --- Micro benches: offline phase -----------------------------------------

func BenchmarkOffline_BuildGIS(b *testing.B) {
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.BuildGIS(m, similarity.DefaultGISOptions())
	}
}

func BenchmarkOffline_KMeans(b *testing.B) {
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(m, cluster.Options{K: 30, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOffline_Smoothing(b *testing.B) {
	m := env().Data.Matrix
	cl, err := cluster.Run(m, cluster.Options{K: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smoothing.New(m, cl)
	}
}

// BenchmarkOffline_ICluster times paper step 4 (Eq. 9) for every user,
// though the model itself ranks one user's clusters per like-minded miss.
func BenchmarkOffline_ICluster(b *testing.B) {
	m := env().Data.Matrix
	cl, err := cluster.Run(m, cluster.Options{K: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sm := smoothing.New(m, cl)
	var order []int32
	var sims []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < m.NumUsers(); u++ {
			order, sims = sm.RankClusters(u, order, sims)
		}
	}
}

func BenchmarkOffline_TrainFull(b *testing.B) {
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfsf.Train(m, cfsf.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro benches: online phase -------------------------------------------

func trainedModel(b *testing.B) *cfsf.Model {
	b.Helper()
	mod, err := cfsf.Train(env().Data.Matrix, cfsf.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return mod
}

func BenchmarkOnline_PredictColdUser(b *testing.B) {
	mod := trainedModel(b)
	cfg := mod.Config()
	cfg.DisableCache = true
	cold, err := cfsf.Train(env().Data.Matrix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold.Predict(i%m.NumUsers(), (i*7)%m.NumItems())
	}
}

func BenchmarkOnline_PredictWarmCache(b *testing.B) {
	mod := trainedModel(b)
	m := env().Data.Matrix
	mod.Predict(0, 0) // warm user 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Predict(0, i%m.NumItems())
	}
}

func BenchmarkOnline_PredictBatch1k(b *testing.B) {
	mod := trainedModel(b)
	m := env().Data.Matrix
	pairs := make([]cfsf.Pair, 1000)
	for k := range pairs {
		pairs[k] = cfsf.Pair{User: k % m.NumUsers(), Item: (k * 13) % m.NumItems()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.PredictBatch(pairs)
	}
}

func BenchmarkOnline_Recommend10(b *testing.B) {
	mod := trainedModel(b)
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Recommend(i%m.NumUsers(), 10)
	}
}

// --- Substrate benches ------------------------------------------------------

func BenchmarkMatrix_RatingLookup(b *testing.B) {
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rating(i%m.NumUsers(), (i*31)%m.NumItems())
	}
}

func BenchmarkMatrix_Build(b *testing.B) {
	src := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := ratings.NewBuilder(src.NumUsers(), src.NumItems())
		for u := 0; u < src.NumUsers(); u++ {
			for _, e := range src.UserRatings(u) {
				bu.MustAdd(u, int(e.Index), e.Value)
			}
		}
		bu.Build()
	}
}

func BenchmarkSimilarity_UserPCC(b *testing.B) {
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.UserPCC(m, i%m.NumUsers(), (i*3+1)%m.NumUsers())
	}
}

// --- Extension benches (beyond the paper) -----------------------------------

func BenchmarkExtension_TopNRanking(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		rows, err := e.TopNRanking(nil, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Method == "cfsf" {
					b.ReportMetric(r.PrecisionAtN, "cfsf_P@10")
					b.ReportMetric(r.NDCGAtN, "cfsf_NDCG@10")
				}
			}
		}
	}
}

func BenchmarkExtension_PostPaperGrid(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		cells, _, err := e.ExtensionGrid()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportGrid(b, cells)
		}
	}
}

func BenchmarkExtension_ParallelScaling(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		points, err := e.ParallelScaling(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(points) > 0 {
			last := points[len(points)-1]
			b.ReportMetric(last.Throughput, "pred/s_max_workers")
			b.ReportMetric(last.Speedup, "speedup_x")
		}
	}
}

func BenchmarkExtension_IncrementalUpdate(b *testing.B) {
	mod := trainedModel(b)
	m := env().Data.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := mod.WithUpdates([]cfsf.RatingUpdate{{
			User:  i % m.NumUsers(),
			Item:  (i * 17) % m.NumItems(),
			Value: float64(1 + i%5),
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtension_SaveLoad(b *testing.B) {
	mod := trainedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := mod.Save(&buf); err != nil {
			b.Fatal(err)
		}
		size := buf.Len()
		if _, err := core.Load(&buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(size), "snapshot_bytes")
		}
	}
}
