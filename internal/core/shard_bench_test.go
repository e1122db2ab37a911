package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cfsf/internal/synth"
)

// Benchmarks for the sharded vs monolithic apply/retrain paths at the
// paper's C=30. The batch targets users of a single shard — the common
// case the sharding refactor optimises — so the monolithic number pays
// the full O(C·nnz) rebuild while the sharded one touches one cluster.

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

func BenchmarkShardedApplySingleShardBatch(b *testing.B) {
	mod := benchModel(b)
	sharded := NewSharded(mod)
	ups := singleShardBatch(b, mod, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sharded.Apply(ups); err != nil {
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

// BenchmarkApplyLedger is the write path on the fixture bench/ serves
// (500×1000 synth.DefaultConfig, C=30): chained ShardedModel.Apply calls
// fed from a seeded Zipf stream (users s=1.0, items s=0.8, as in bench/),
// each op applying to the model the previous op returned — so ns/op and
// B/op are what one drained batch costs in steady state, fixed per-Apply
// cost included. single is one rating per Apply (the ledger's
// mean_batch_size is 1.0–1.3), array16 a 16-rating array spanning many
// clusters. CI fences B/op with benchjson -max (ci.yml).
func BenchmarkApplyLedger(b *testing.B) {
	d := synth.MustGenerate(synth.DefaultConfig())
	base, err := Train(d.Matrix, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p, q := d.Matrix.NumUsers(), d.Matrix.NumItems()
	for _, bc := range []struct {
		name string
		size int
	}{{"single", 1}, {"array16", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(23))
			ranking := rand.New(rand.NewSource(1))
			uz, iz := newZipfIDs(ranking, p, 1.0), newZipfIDs(ranking, q, 0.8)
			sharded := NewSharded(base)
			batch := make([]RatingUpdate, bc.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range batch {
					batch[k] = RatingUpdate{User: uz.draw(rng), Item: iz.draw(rng), Value: float64(1 + rng.Intn(5))}
				}
				next, err := sharded.Apply(batch)
				if err != nil {
					b.Fatal(err)
				}
				sharded = next
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.size), "ns/update")
		})
	}
}
