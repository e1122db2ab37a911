package core

import (
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// benchPredictModel trains a mid-size model once per benchmark binary;
// the online-phase benches below share it.
var benchPredictModel *Model

func benchOnlineModel(b *testing.B) *Model {
	b.Helper()
	if benchPredictModel == nil {
		cfg := synth.DefaultConfig()
		cfg.Users = 400
		cfg.Items = 500
		cfg.MinPerUser = 15
		cfg.MeanPerUser = 40
		cfg.Archetypes = 10
		d, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		mcfg := DefaultConfig()
		mod, err := Train(d.Matrix, mcfg)
		if err != nil {
			b.Fatal(err)
		}
		benchPredictModel = mod
	}
	return benchPredictModel
}

// BenchmarkPredict is the steady-state online path: the active user's
// like-minded neighbourhood is already cached, so each iteration is one
// local-matrix fusion (Eq. 12-14) over the precomputed top-M
// neighbourhood. CI gates on allocs/op == 0 here (cmd/benchjson
// -require-zero-allocs).
func BenchmarkPredict(b *testing.B) {
	mod := benchOnlineModel(b)
	q := mod.Matrix().NumItems()
	mod.Predict(0, 0) // warm user 0's neighbour cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Predict(0, i%q)
	}
}

// BenchmarkPredictColdCache pays the Eq. 10 like-minded selection on
// every call (DisableCache ablation): the per-request scratch path.
func BenchmarkPredictColdCache(b *testing.B) {
	mod := benchOnlineModel(b)
	cfg := mod.Config()
	cfg.DisableCache = true
	cold, err := Train(mod.Matrix(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, q := mod.Matrix().NumUsers(), mod.Matrix().NumItems()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold.Predict(i%p, (i*7)%q)
	}
}

// BenchmarkRecommend cycles through every user with all per-user cache
// entries pre-warmed: the cached read through the value-returning API
// (which pays one result allocation per call, unlike RecommendAppend).
func BenchmarkRecommend(b *testing.B) {
	mod := benchOnlineModel(b)
	p := mod.Matrix().NumUsers()
	for u := 0; u < p; u++ {
		mod.Recommend(u, 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Recommend(i%p, 10)
	}
}

// BenchmarkRecommendWarm is the steady-state serving path the CI gate
// holds Recommend to: a warm per-user cache entry read through
// caller-owned storage (RecommendAppend with a reused dst). Must be
// allocation-free and within the ns/op ceiling wired in ci.yml.
func BenchmarkRecommendWarm(b *testing.B) {
	mod := benchOnlineModel(b)
	p := mod.Matrix().NumUsers()
	for u := 0; u < p; u++ {
		mod.Recommend(u, 10)
	}
	dst := make([]Recommendation, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = mod.RecommendAppend(dst[:0], i%p, 10)
	}
}

// BenchmarkRecommendCold is the exact scan the cache replaces, timed on
// a cache-disabled model so every iteration runs it — kept as the
// denominator for BENCH_recommend.json. It selects want = n = 10.
func BenchmarkRecommendCold(b *testing.B) {
	benchRecommendCold(b, benchOnlineModel(b).Matrix(), -1, 10, false)
}

// BenchmarkRecommendColdLedger is the exact scan on the 500×1000
// synth.DefaultConfig fixture bench/ serves, at the widths a scan runs
// at — the bound-and-prune selection prices fewer candidates the
// narrower it is, so they are different scans. n10 is a cache-disabled
// model selecting want = n = 10, the denominator. ask10 is the default
// cache with the user's slot cleared before each read: the miss the
// server takes, want = n = 10, and the scan the ledger's
// core.recommend_us_p50 times under writes. deep128 asks 50 of a slot
// that holds the 10-entry: the second, deeper ask, scanned once at the
// cache capacity. CI fences ask10's ns/op and B/op and deep128's ns/op
// with benchjson -max (ci.yml).
func BenchmarkRecommendColdLedger(b *testing.B) {
	d, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("n10", func(b *testing.B) { benchRecommendCold(b, d.Matrix, -1, 10, false) })
	b.Run("ask10", func(b *testing.B) { benchRecommendCold(b, d.Matrix, 0, 10, false) })
	b.Run("deep128", func(b *testing.B) { benchRecommendCold(b, d.Matrix, 0, 50, true) })
}

// benchRecommendCold times Recommend(user, n) with no cached entry to
// serve it — an empty slot, or with shortEntry the user's 10-entry —
// cycling through the users, and reports how many candidates a scan
// priced. One scan runs before the timer so the pooled scratch exists:
// B/op is then what a scan allocates in steady state at any -benchtime,
// and a scan buffer that bypasses the pool shows in full.
func benchRecommendCold(b *testing.B, m *ratings.Matrix, cacheSize, n int, shortEntry bool) {
	cfg := DefaultConfig()
	cfg.RecommendCacheSize = cacheSize
	cold, err := Train(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := m.NumUsers()
	short := make([]*recEntry, p)
	for u := 0; u < p; u++ {
		cold.likeMindedUsers(u) // warm the neighbour cache, not the rec cache
		if shortEntry {
			cold.Recommend(u, 10)
			short[u] = cold.recCache[u].Load()
		}
	}
	cold.Recommend(p-1, n)
	before := ReadRecCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold.recCache != nil {
			cold.recCache[i%p].Store(short[i%p])
		}
		cold.Recommend(i%p, n)
	}
	b.StopTimer()
	after := ReadRecCacheStats()
	b.ReportMetric(float64(after.ScanPriced-before.ScanPriced)/float64(b.N), "priced/op")
}
