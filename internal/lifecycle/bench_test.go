package lifecycle

import (
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// The pair below quantifies the tentpole's throughput claim: folding k
// ratings per model rebuild amortises the O(nnz) refresh, so
// per-update cost drops roughly linearly with batch size. Compare
// ns/op: both benchmarks report time per *update*, not per rebuild.

func benchUpdates(n int) []core.RatingUpdate {
	ups := make([]core.RatingUpdate, n)
	for i := range ups {
		ups[i] = testUpdate(i)
	}
	return ups
}

func BenchmarkApplyPerRequest(b *testing.B) {
	base := newBaseModel(b)
	ups := benchUpdates(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := base
		var err error
		for _, u := range ups {
			if cur, err = cur.WithUpdates([]core.RatingUpdate{u}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}

func BenchmarkApplyMicroBatch64(b *testing.B) {
	base := newBaseModel(b)
	ups := benchUpdates(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.WithUpdates(ups); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}

// BenchmarkDrainPrefix measures the drain rule on a multi-shard burst:
// the whole prefix folds in a single Apply whose rebuild passes
// parallelise across the touched shards. Reports time per update.
func BenchmarkDrainPrefix(b *testing.B) {
	base := newBaseModel(b)
	ups := benchUpdates(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSharded(base).Apply(ups); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/update")
}

func BenchmarkWALAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"fsync=never", wal.SyncNever}, {"fsync=always", wal.SyncAlways}} {
		b.Run(tc.name, func(b *testing.B) {
			w, err := wal.Open(b.TempDir(), wal.Options{Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			u := testUpdate(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.AppendRating(u, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
