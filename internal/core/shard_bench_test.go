package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// Benchmarks for Apply against the from-scratch WithUpdates and Train at
// the paper's C=30. The batch targets users of a single shard — the
// common case Apply's shard-local refresh serves — so WithUpdates pays
// the full O(C·nnz) rebuild while Apply touches one cluster.

// benchModel trains at the paper's MovieLens-100K scale (943 users, 1682
// items, ~100k ratings) with the paper's C=30 — the workload the sharding
// refactor targets.
func benchModel(b *testing.B) *Model {
	b.Helper()
	cfg := synth.DefaultConfig()
	cfg.Users = 943
	cfg.Items = 1682
	cfg.MinPerUser = 20
	cfg.MeanPerUser = 106
	cfg.Archetypes = 16
	d := synth.MustGenerate(cfg)
	mcfg := DefaultConfig()
	mcfg.Clusters = 30
	mod, err := Train(d.Matrix, mcfg)
	if err != nil {
		b.Fatal(err)
	}
	return mod
}

// singleShardBatch builds a batch touching only shard 0's users, re-rating
// items they already rated so no user changes cluster.
func singleShardBatch(b *testing.B, mod *Model, n int) []RatingUpdate {
	b.Helper()
	members := mod.Clusters().Members[0]
	var ups []RatingUpdate
	for len(ups) < n {
		for _, u := range members {
			row := mod.Matrix().UserRatings(u)
			if len(row) == 0 {
				continue
			}
			e := row[len(ups)%len(row)]
			ups = append(ups, RatingUpdate{User: u, Item: int(e.Index), Value: 3})
			if len(ups) == n {
				break
			}
		}
		if len(members) == 0 {
			b.Skip("empty shard 0")
		}
	}
	return ups
}

func BenchmarkMonolithicApplySingleShardBatch(b *testing.B) {
	mod := benchModel(b)
	ups := singleShardBatch(b, mod, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.WithUpdates(ups); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}

func BenchmarkApplySingleShardBatch(b *testing.B) {
	mod := benchModel(b)
	ups := singleShardBatch(b, mod, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.Apply(ups); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}

func BenchmarkMonolithicFullRetrain(b *testing.B) {
	mod := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(mod.Matrix(), mod.Config()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainLedger is what a first boot of the server bench/ drives
// pays for its model once the dataset is on disk: parse the ledger
// fixture's u.data (500×1000 synth.DefaultConfig, written outside the
// timer) with ReadUData, then Train at the defaults (C = 30). kmeans-sweeps
// is how many Lloyd sweeps the fit ran; it repeats exactly, and CI fences
// it and B/op (ci.yml).
func BenchmarkTrainLedger(b *testing.B) {
	var udata bytes.Buffer
	if err := ratings.WriteUData(&udata, synth.MustGenerate(synth.DefaultConfig()).Matrix); err != nil {
		b.Fatal(err)
	}
	var sweeps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ratings.ReadUData(bytes.NewReader(udata.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		mod, err := Train(m, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		sweeps = mod.Clusters().Fit().Swept
	}
	b.ReportMetric(float64(sweeps), "kmeans-sweeps")
}

// zipfIDs draws ids with probability proportional to 1/rank^s over a
// fixed seeded ranking — the shape of bench/'s request stream, rebuilt
// here because bench/ is a module of its own.
type zipfIDs struct {
	cum []float64
	ids []int
}

func newZipfIDs(ranking *rand.Rand, n int, s float64) zipfIDs {
	z := zipfIDs{cum: make([]float64, n), ids: ranking.Perm(n)}
	var total float64
	for k := range z.cum {
		total += 1 / math.Pow(float64(k+1), s)
		z.cum[k] = total
	}
	return z
}

func (z zipfIDs) draw(rng *rand.Rand) int {
	return z.ids[sort.SearchFloat64s(z.cum, rng.Float64()*z.cum[len(z.cum)-1])]
}

// ledgerStream draws the rating stream of bench/'s workloads, seeded so
// every run draws the same: users Zipf s=1.0, items s=0.8, ratings
// uniform 1–5.
func ledgerStream(p, q int) func() RatingUpdate {
	rng := rand.New(rand.NewSource(23))
	ranking := rand.New(rand.NewSource(1))
	uz, iz := newZipfIDs(ranking, p, 1.0), newZipfIDs(ranking, q, 0.8)
	return func() RatingUpdate {
		return RatingUpdate{User: uz.draw(rng), Item: iz.draw(rng), Value: float64(1 + rng.Intn(5))}
	}
}

// ledgerModel trains the fixture bench/ serves: 500×1000
// synth.DefaultConfig at the defaults (C=30).
func ledgerModel(b *testing.B) *Model {
	b.Helper()
	base, err := Train(synth.MustGenerate(synth.DefaultConfig()).Matrix, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return base
}

// BenchmarkApplyLedger is the write path on the ledger fixture: chained
// Apply calls fed from ledgerStream, each op applying to the model the
// previous op returned — so ns/op and B/op are what one drained batch
// costs in steady state, fixed per-Apply cost included. single is one
// rating per Apply (the ledger's mean_batch_size is 1.0–1.3), array16 a
// 16-rating array spanning many clusters. reselected/1k-applies is how
// many GIS lists those Applies selected again from all their candidates
// (GIS.Refresh, step 4), per 1 000 Applies. CI fences B/op with benchjson
// -max (ci.yml).
func BenchmarkApplyLedger(b *testing.B) {
	base := ledgerModel(b)
	p, q := base.Matrix().NumUsers(), base.Matrix().NumItems()
	for _, bc := range []struct {
		name string
		size int
	}{{"single", 1}, {"array16", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			next := ledgerStream(p, q)
			cur := base
			batch := make([]RatingUpdate, bc.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range batch {
					batch[k] = next()
				}
				var err error
				if cur, err = cur.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.size), "ns/update")
			b.ReportMetric(1000*float64(cur.Stats().GISReselected)/float64(b.N), "reselected/1k-applies")
		})
	}
}

// BenchmarkApplyLedgerInterleaved is BenchmarkApplyLedger/single as the
// spawned server meets it under bench/'s mixed workload, where the reads
// between two writes take the cache from the lists an Apply reads: before
// each timed single-rating Apply, an untimed slice of mixed's reads on the
// current generation — 4 Predicts and one Recommend(u, 10), users and
// items drawn as ledgerStream draws them. CI fences B/op and allocs/op
// (ci.yml).
func BenchmarkApplyLedgerInterleaved(b *testing.B) {
	cur := ledgerModel(b)
	p, q := cur.Matrix().NumUsers(), cur.Matrix().NumItems()
	next := ledgerStream(p, q)
	ranking := rand.New(rand.NewSource(1))
	uz, iz := newZipfIDs(ranking, p, 1.0), newZipfIDs(ranking, q, 0.8)
	reads := rand.New(rand.NewSource(29))
	batch := make([]RatingUpdate, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 4; k++ {
			cur.Predict(uz.draw(reads), iz.draw(reads))
		}
		cur.Recommend(uz.draw(reads), 10)
		batch[0] = next()
		b.StartTimer()
		var err error
		if cur, err = cur.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000*float64(cur.Stats().GISReselected)/float64(b.N), "reselected/1k-applies")
}

// BenchmarkDrainFullQueue is the lifecycle manager's drain rule — every
// queued rating folds in one Apply — on the deepest queue the default
// QueueCapacity admits: the first 4096 ratings of ledgerStream, drained
// from the trained ledger fixture on every op.
func BenchmarkDrainFullQueue(b *testing.B) {
	base := ledgerModel(b)
	next := ledgerStream(base.Matrix().NumUsers(), base.Matrix().NumItems())
	queue := make([]RatingUpdate, 4096)
	for k := range queue {
		queue[k] = next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Apply(queue); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queue)), "ns/update")
}
