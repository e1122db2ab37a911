package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentPredictDuringApply hammers the pooled-scratch online
// path (Predict, PredictDetailed, Recommend, PredictBatch, Explain) from
// many goroutines while a writer keeps publishing new model generations
// via Apply. Run under -race this is the ownership proof for
// lmScratchPool, colIndexPool and recScratchPool: scratch never leaks
// between goroutines or across model generations, and readers on an old
// generation stay self-consistent.
func TestConcurrentPredictDuringApply(t *testing.T) {
	mod, _ := trainSmall(t)

	var cur sync.Map // single key 0 -> *Model
	cur.Store(0, mod)
	load := func() *Model {
		v, _ := cur.Load(0)
		return v.(*Model)
	}

	const readers = 8
	const rounds = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := load()
				u := (g*31 + i) % m.m.NumUsers()
				it := (g*17 + i) % m.m.NumItems()
				switch i % 5 {
				case 0:
					m.Predict(u, it)
				case 1:
					m.PredictDetailed(u, it)
				case 2:
					m.Recommend(u, 5)
				case 3:
					m.PredictBatch([]Pair{{u, it}, {u, (it + 1) % m.m.NumItems()}})
				case 4:
					if ex := m.Explain(u, it, 3); !samePrediction(ex.Prediction, m.PredictDetailed(u, it)) {
						t.Errorf("Explain(%d, %d) predicted %+v, PredictDetailed %+v", u, it, ex.Prediction, m.PredictDetailed(u, it))
					}
				}
				i++
			}
		}(g)
	}

	gen := mod
	for r := 0; r < rounds; r++ {
		ups := make([]RatingUpdate, 0, 10)
		for j := 0; j < 10; j++ {
			ups = append(ups, RatingUpdate{
				User:  (r*10 + j) % mod.m.NumUsers(),
				Item:  (r*7 + j) % mod.m.NumItems(),
				Value: float64(j%5) + 1,
			})
		}
		next, err := gen.Apply(ups)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		gen = next
		cur.Store(0, gen)
	}
	close(stop)
	wg.Wait()

	// The final generation still predicts deterministically after the
	// concurrent churn (pooled scratch left no residue).
	m := load()
	for u := 0; u < 5; u++ {
		a := m.PredictDetailed(u, u+3)
		b := m.PredictDetailed(u, u+3)
		if a != b {
			t.Fatalf("user %d: prediction not deterministic after stress: %+v vs %+v", u, a, b)
		}
	}
}

// TestConcurrentRecommendCacheDuringApply races cached Recommend reads —
// hits, misses, and the racing publication of entries two readers scanned
// at once — against a writer publishing new generations. Under -race this
// is the proof that entry publication is safe (entries are immutable and
// racing scans of the same user on the same generation produce prefixes
// of one ranking, so whichever publishRec keeps serves both), and every
// read is checked against the reference ranking computed on the reader's
// own pinned generation, so a stale or torn entry cannot hide. Each apply
// leaves the cache cold, so the scan kernel's pooled tile is under the
// race too. The paging row has readers ask 3 and 50 of the same users, so
// shallow scans, widened ones and their two entries race for one slot.
func TestConcurrentRecommendCacheDuringApply(t *testing.T) {
	t.Run("scan", func(t *testing.T) {
		mod, _ := trainSmall(t)
		raceRecommendAgainstApply(t, mod, func(g, i int) int { return 1 + (g+i)%10 })
	})
	t.Run("paging", func(t *testing.T) {
		mod, _ := trainSmall(t)
		before := ReadRecCacheStats().Widened
		// i/2, not i: a reader's user id has the parity of g+i, which would
		// pin every user to one n.
		raceRecommendAgainstApply(t, mod, func(g, i int) int { return []int{3, 50}[(g+i/2)%2] })
		if ReadRecCacheStats().Widened == before {
			t.Error("no read found a short entry and scanned again at the capacity")
		}
	})
}

func raceRecommendAgainstApply(t *testing.T, mod *Model, ask func(g, i int) int) {
	p := mod.Matrix().NumUsers()
	for u := 0; u < p; u++ {
		mod.Recommend(u, 8) // warm every entry: readers of this generation start on hits
	}

	var cur sync.Map
	cur.Store(0, mod)
	load := func() *Model {
		v, _ := cur.Load(0)
		return v.(*Model)
	}

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	var diverged atomic.Bool
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m := load()
				u := (g*37 + i) % m.m.NumUsers()
				n := 1 + (g+i)%10
				got := m.Recommend(u, n)
				reads.Add(1)
				if i%40 == 0 {
					// Exact reference on the same pinned generation: the
					// cached read must be bit-identical whichever racing
					// scan's entry it was served from.
					if want := refRecommend(m, u, n); !equalRecs(got, want) {
						diverged.Store(true)
						return
					}
				}
			}
		}(g)
	}

	gen := mod
	for r := 0; r < 8; r++ {
		ups := []RatingUpdate{
			{User: (r * 13) % p, Item: (r * 11) % mod.Matrix().NumItems(), Value: float64(r%5) + 1},
			{User: (r*13 + 5) % p, Item: (r*11 + 3) % mod.Matrix().NumItems(), Value: float64((r+2)%5) + 1},
		}
		next, err := gen.Apply(ups)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		gen = next
		cur.Store(0, gen)
		// Let the readers work on this generation — cold misses, then
		// hits on what they stored — before the next apply replaces it.
		for target := reads.Load() + 4*readers; reads.Load() < target && !diverged.Load(); {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if diverged.Load() {
		t.Fatal("cached read diverged from reference on a pinned generation")
	}
}
