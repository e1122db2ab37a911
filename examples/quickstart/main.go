// Quickstart: generate a MovieLens-like dataset, train CFSF, predict one
// rating with its component breakdown, recommend ten movies, and compare
// MAE against the classic item-based (SIR) and user-based (SUR)
// baselines under the paper's Given-10 protocol.
package main

import (
	"fmt"
	"log"

	"cfsf"
)

func main() {
	// 1. Data: 500 users × 1000 items at ≈9.4% density (paper Table I).
	data := cfsf.GenerateSynthetic(cfsf.DefaultSynthConfig())
	m := data.Matrix
	fmt.Printf("dataset: %d users × %d items, %d ratings (density %.2f%%)\n",
		m.NumUsers(), m.NumItems(), m.NumRatings(), 100*m.Density())

	// 2. Train CFSF with the paper's defaults (C=30, λ=0.8, δ=0.1, K=25,
	// M=95; w is read as the smoothed-rating weight, default 0.2 — see DESIGN.md).
	model, err := cfsf.Train(m, cfsf.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	st := model.Stats()
	fmt.Printf("offline phase: GIS %v, clustering %v (%d iters), smoothing %v\n",
		st.GISDuration.Round(1e6), st.ClusterDuration.Round(1e6),
		st.ClusterIters, st.SmoothDuration.Round(1e6))

	// 3. One prediction with its fusion breakdown.
	user, item := 7, 42
	p := model.PredictDetailed(user, item)
	fmt.Printf("predict(user=%d, item=%q): %.2f  (SIR'=%.2f SUR'=%.2f SUIR'=%.2f, local %d×%d)\n",
		user, data.ItemTitles[item], p.Value, p.SIR, p.SUR, p.SUIR, p.ItemsUsed, p.UsersUsed)

	// 4. Top-10 recommendations for the same user.
	fmt.Printf("top recommendations for user %d:\n", user)
	for rank, rec := range model.Recommend(user, 10) {
		fmt.Printf("  %2d. %-24s predicted %.2f\n", rank+1, data.ItemTitles[rec.Item], rec.Score)
	}

	// 5. MAE comparison under ML_300 / Given-10 (paper Table II column).
	split, err := cfsf.MLSplit(m, 300, 200, 10)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"cfsf", "sur", "sir"} {
		var pred cfsf.Predictor
		if name == "cfsf" {
			pred = cfsf.NewPredictor(cfsf.DefaultConfig())
		} else {
			pred, err = cfsf.NewBaseline(name)
			if err != nil {
				log.Fatal(err)
			}
		}
		res, err := cfsf.Evaluate(pred, split, cfsf.EvalOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MAE %-6s = %.4f  (%d targets, fit %v, predict %v)\n",
			name, res.MAE, res.NumTargets, res.FitTime.Round(1e6), res.PredictTime.Round(1e6))
	}
}
