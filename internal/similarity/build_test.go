package similarity

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// buildGISReference is BuildGIS as it was before the one-pass build, kept
// as the reference that build is pinned to: every item accumulates Eq. 5
// against all of its raters' rows on its own, sorts all its candidates in
// canonical order and keeps the first N, the next one its horizon.
func buildGISReference(m *ratings.Matrix, opts GISOptions) *GIS {
	q := m.NumItems()
	neighbors, tau := make([][]mathx.Scored, q), make([]mathx.Scored, q)
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		scratch := newCandidateScratch(q)
		for a := lo; a < hi; a++ {
			list := mathx.SelectTopScored(candidateList(m, a, opts, scratch, nil), 0)
			if n := topNOrAll(opts.TopN, len(list)); n < len(list) {
				tau[a] = list[n]
				list = list[:n]
			}
			if len(list) > 0 {
				neighbors[a] = list
			}
		}
	})
	return testGIS(neighbors, tau, opts)
}

// ledgerMatrix is the fixture bench/ serves — synth.DefaultConfig at the
// given seed, through u.data and back as a server boot reads it — with
// one more item that nobody rated.
func ledgerMatrix(t testing.TB, seed int64) *ratings.Matrix {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	var udata bytes.Buffer
	if err := ratings.WriteUData(&udata, synth.MustGenerate(cfg).Matrix); err != nil {
		t.Fatal(err)
	}
	m, err := ratings.ReadUData(&udata)
	if err != nil {
		t.Fatal(err)
	}
	b := ratings.NewBuilder(m.NumUsers(), m.NumItems()+1).SetScale(m.MinRating(), m.MaxRating())
	for u := 0; u < m.NumUsers(); u++ {
		for _, e := range m.UserRatings(u) {
			b.MustAdd(u, int(e.Index), e.Value)
		}
	}
	return b.Build()
}

// tieFixture puts a tie at the cut. Items 1 and 2 see item 0 through the
// same (da, db) sequence — users 0 and 1 rate 0 alike and each rate one of
// them alike — so both weights are equal to the bit; but user 0 pushes
// item 2 into item 0's candidates before user 1 pushes item 1. At N = 1
// the canonical order keeps item 1, whatever the push order, and item 2
// is the list's horizon.
func tieFixture(t *testing.T) *ratings.Matrix {
	t.Helper()
	return matrixFrom(t, [][]float64{
		{1, 0, 1},
		{1, 1, 0},
		{5, 5, 5},
		{3, 3, 3},
	})
}

// TestBuildGISMatchesReference pins the one-pass build to
// buildGISReference bit for bit, lists and horizons: ledger seeds 1–4 with
// an unrated item, × PCC/Cosine, × TopN 0/50/95/200, × MinCoRatings
// 0/2/3, plus a Threshold and SignificanceGamma case, × Workers 1/2/7;
// and a tie at the cut, which the canonical order settles (the ledger has
// many: ratings are integers). Under the race detector only seed 1 at
// TopN 95, MinCoRatings 2 runs.
func TestBuildGISMatchesReference(t *testing.T) {
	check := func(t *testing.T, m *ratings.Matrix, opts GISOptions) *GIS {
		t.Helper()
		want := buildGISReference(m, opts)
		var first *GIS
		for _, workers := range []int{1, 2, 7} {
			opts.Workers = workers
			got := BuildGIS(m, opts)
			requireSameGIS(t, want, got, fmt.Sprintf("workers=%d", workers))
			if got.Options() != opts {
				t.Fatalf("options = %+v, want %+v", got.Options(), opts)
			}
			if first == nil {
				first = got
			}
		}
		return first
	}

	t.Run("tie at the cut", func(t *testing.T) {
		opts := GISOptions{Metric: PCC, TopN: 1, MinCoRatings: 2}
		g := check(t, tieFixture(t), opts)
		l, tau := g.Neighbors(0), g.Horizon(0)
		if len(l) != 1 || l[0].Index != 1 || tau.Index != 2 || tau.Score != l[0].Score {
			t.Fatalf("item 0 keeps %v under horizon %v, want item 1 under item 2 at the same weight", l, tau)
		}
	})

	seeds, topNs, minCos := int64(4), []int{0, 50, 95, 200}, []int{0, 2, 3}
	if raceEnabled {
		seeds, topNs, minCos = 1, []int{95}, []int{2}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		m := ledgerMatrix(t, seed)
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			var grid []GISOptions
			for _, metric := range []Metric{PCC, Cosine} {
				for _, topN := range topNs {
					for _, minCo := range minCos {
						grid = append(grid, GISOptions{Metric: metric, TopN: topN, MinCoRatings: minCo})
					}
				}
			}
			grid = append(grid, GISOptions{Metric: PCC, TopN: 95, MinCoRatings: 2, Threshold: 0.3, SignificanceGamma: 10})
			for _, opts := range grid {
				g := check(t, m, opts)
				if n := g.Neighbors(m.NumItems() - 1); n != nil {
					t.Fatalf("%+v: the unrated item has neighbours %v", opts, n)
				}
			}
		})
	}
}

// TestSelectTop: the first k entries after selectTop are the k that lead
// the canonical order, for every k, on lists full of tied scores.
func TestSelectTop(t *testing.T) {
	for n := 1; n <= 40; n++ {
		list := make([]mathx.Scored, n)
		for i, id := range rand.New(rand.NewSource(int64(n))).Perm(n) {
			list[i] = mathx.Scored{Index: int32(id), Score: float64((i * 13) % 5)}
		}
		want := append([]mathx.Scored(nil), list...)
		mathx.SortScoredDesc(want)
		for k := 1; k < n; k++ {
			got := append([]mathx.Scored(nil), list...)
			selectTop(got, k)
			mathx.SortScoredDesc(got[:k])
			for j := 0; j < k; j++ {
				if got[j] != want[j] {
					t.Fatalf("n=%d k=%d: entry %d = %v, want %v", n, k, j, got[j], want[j])
				}
			}
		}
	}
}
