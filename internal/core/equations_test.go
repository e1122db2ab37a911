package core

import (
	"math"
	"testing"

	"cfsf/internal/synth"
)

// TestEq12Eq14AgainstReference re-computes SIR′, SUR′, SUIR′ and the
// Eq. 14 fusion from the model's exposed artefacts (GIS, smoother,
// neighbour lists) with straightforward reference code, and checks the
// production path — which uses merge iteration and caches — against it
// cell by cell. This pins the algebra of §IV-F independently of the
// optimised implementation.
func TestEq12Eq14AgainstReference(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Users = 100
	cfg.Items = 120
	cfg.MinPerUser = 12
	cfg.MeanPerUser = 24
	cfg.Archetypes = 6
	d := synth.MustGenerate(cfg)

	mcfg := DefaultConfig()
	mcfg.M = 15
	mcfg.K = 8
	mcfg.Clusters = 6
	mod, err := Train(d.Matrix, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	eps := mcfg.OriginalWeight
	w11 := func(u, i int) (r float64, w float64) {
		if v, ok := mod.Matrix().Rating(u, i); ok {
			return v, eps
		}
		v, _ := mod.Smoother().Rating(u, i)
		return v, 1 - eps
	}

	checked := 0
	for user := 0; user < 25; user++ {
		for item := 0; item < 20; item++ {
			p := mod.PredictDetailed(user, item)

			// Reference SIR′ over the top-M GIS neighbours.
			items := mod.GIS().Neighbors(item)
			if len(items) > mcfg.M {
				items = items[:mcfg.M]
			}
			var sirNum, sirDen float64
			for _, it := range items {
				r, w := w11(user, int(it.Index))
				sirNum += w * it.Score * r
				sirDen += w * it.Score
			}

			// Reference SUR′/SUIR′ over the same neighbour selection the
			// model made (Eq. 10 selection itself is covered by
			// TestFullUserSearchConsistent and eq10 bounds tests).
			neighbours := mod.likeMindedUsers(user)
			var surNum, surDen float64
			for _, lm := range neighbours {
				tU := int(lm.user)
				r, w := w11(tU, item)
				surNum += w * lm.sim * (r - mod.Matrix().UserMean(tU))
				surDen += w * lm.sim
			}
			var suirNum, suirDen float64
			for _, lm := range neighbours {
				tU := int(lm.user)
				for _, it := range items {
					ps := pairSim(it.Score, lm.sim)
					if ps <= 0 {
						continue
					}
					r, w := w11(tU, int(it.Index))
					suirNum += w * ps * r
					suirDen += w * ps
				}
			}

			// Compare components.
			if sirDen > 0 {
				if !p.HasSIR || math.Abs(p.SIR-sirNum/sirDen) > 1e-9 {
					t.Fatalf("(%d,%d) SIR' = %v/%v, reference %g", user, item, p.SIR, p.HasSIR, sirNum/sirDen)
				}
			} else if p.HasSIR {
				t.Fatalf("(%d,%d) SIR' present without support", user, item)
			}
			if surDen > 0 {
				want := mod.Matrix().UserMean(user) + surNum/surDen
				if !p.HasSUR || math.Abs(p.SUR-want) > 1e-9 {
					t.Fatalf("(%d,%d) SUR' = %v/%v, reference %g", user, item, p.SUR, p.HasSUR, want)
				}
			}
			if suirDen > 0 {
				want := suirNum / suirDen
				if !p.HasSUIR || math.Abs(p.SUIR-want) > 1e-9 {
					t.Fatalf("(%d,%d) SUIR' = %v/%v, reference %g", user, item, p.SUIR, p.HasSUIR, want)
				}
			}

			// Eq. 14 with renormalisation.
			var num, den float64
			if p.HasSIR {
				num += (1 - mcfg.Delta) * (1 - mcfg.Lambda) * p.SIR
				den += (1 - mcfg.Delta) * (1 - mcfg.Lambda)
			}
			if p.HasSUR {
				num += (1 - mcfg.Delta) * mcfg.Lambda * p.SUR
				den += (1 - mcfg.Delta) * mcfg.Lambda
			}
			if p.HasSUIR {
				num += mcfg.Delta * p.SUIR
				den += mcfg.Delta
			}
			if den > 0 {
				want := num / den
				if want < 1 {
					want = 1
				}
				if want > 5 {
					want = 5
				}
				if math.Abs(p.Value-want) > 1e-9 {
					t.Fatalf("(%d,%d) fused = %g, reference %g", user, item, p.Value, want)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cells checked")
	}
}
