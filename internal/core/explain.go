package core

import (
	"fmt"
	"sort"
	"strings"
)

// Explanation decomposes one CFSF prediction into the concrete evidence
// behind it: which similar items and like-minded users contributed, with
// what weight, and from original or smoothed data. Recommender systems
// expose this to end users ("because you liked X"); here it also serves
// debugging and the examples.
type Explanation struct {
	User, Item int
	Prediction Prediction
	// ItemEvidence lists the top similar items that carried SIR′,
	// strongest contribution first.
	ItemEvidence []ItemEvidence
	// UserEvidence lists the like-minded users that carried SUR′,
	// strongest contribution first.
	UserEvidence []UserEvidence
}

// ItemEvidence is one similar item's contribution to SIR′.
type ItemEvidence struct {
	Item       int
	Similarity float64 // GIS similarity to the active item
	Rating     float64 // the active user's (possibly smoothed) rating of it
	Original   bool    // whether Rating was observed rather than smoothed
	Weight     float64 // share of the SIR′ denominator, in [0,1]
}

// UserEvidence is one like-minded user's contribution to SUR′.
type UserEvidence struct {
	User       int
	Similarity float64 // Eq. 10 similarity to the active user
	Rating     float64 // that user's (possibly smoothed) rating of the item
	Original   bool
	Weight     float64 // share of the SUR′ denominator, in [0,1]
}

// Explain computes the prediction for (user, item) and returns the
// evidence decomposition, keeping at most topEvidence entries per side
// (0 = all).
func (mod *Model) Explain(user, item, topEvidence int) Explanation {
	ex := Explanation{User: user, Item: item}
	ex.Prediction = mod.PredictDetailed(user, item)
	if user < 0 || user >= mod.m.NumUsers() || item < 0 || item >= mod.m.NumItems() {
		return ex
	}

	// The read kernels' column index and cell rule (predict.go), in two
	// passes: the active row scattered into the item's top-M columns, then
	// each like-minded row into the item's own column.
	top := mod.topItems(item)
	q := mod.m.NumItems()
	x := colIndexPool.Get().(*colIndex)
	x.ready(q, len(top)+1)

	x.index(top)
	x.scatter(mod.m.UserRatings(user))
	c := mod.cellsOf(user)
	var itemDen float64
	for k, it := range top {
		obs := x.take(k)
		r, w11, ok := c.at(obs, it.Index)
		if !ok {
			continue
		}
		w := w11 * it.Score
		itemDen += w
		ex.ItemEvidence = append(ex.ItemEvidence, ItemEvidence{
			Item:       int(it.Index),
			Similarity: it.Score,
			Rating:     r,
			Original:   obs == obs,
			Weight:     w,
		})
	}
	x.unindex(top)
	if itemDen > 0 {
		for i := range ex.ItemEvidence {
			ex.ItemEvidence[i].Weight /= itemDen
		}
	}
	sort.Slice(ex.ItemEvidence, func(a, b int) bool {
		if ex.ItemEvidence[a].Weight != ex.ItemEvidence[b].Weight {
			return ex.ItemEvidence[a].Weight > ex.ItemEvidence[b].Weight
		}
		return ex.ItemEvidence[a].Item < ex.ItemEvidence[b].Item
	})

	x.slot[item] = 0
	var userDen float64
	for _, lm := range mod.likeMindedUsers(user) {
		t := int(lm.user)
		x.scatter(mod.m.UserRatings(t))
		obs := x.take(0)
		c := mod.cellsOf(t)
		r, w11, ok := c.at(obs, int32(item))
		if !ok {
			continue
		}
		w := w11 * lm.sim
		userDen += w
		ex.UserEvidence = append(ex.UserEvidence, UserEvidence{
			User:       t,
			Similarity: lm.sim,
			Rating:     r,
			Original:   obs == obs,
			Weight:     w,
		})
	}
	x.slot[item] = -1
	putColIndex(x, q, mod.cfg.M+1)
	if userDen > 0 {
		for i := range ex.UserEvidence {
			ex.UserEvidence[i].Weight /= userDen
		}
	}
	sort.Slice(ex.UserEvidence, func(a, b int) bool {
		if ex.UserEvidence[a].Weight != ex.UserEvidence[b].Weight {
			return ex.UserEvidence[a].Weight > ex.UserEvidence[b].Weight
		}
		return ex.UserEvidence[a].User < ex.UserEvidence[b].User
	})

	if topEvidence > 0 {
		if len(ex.ItemEvidence) > topEvidence {
			ex.ItemEvidence = ex.ItemEvidence[:topEvidence]
		}
		if len(ex.UserEvidence) > topEvidence {
			ex.UserEvidence = ex.UserEvidence[:topEvidence]
		}
	}
	return ex
}

// String renders a compact human-readable explanation.
func (ex Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "predict(user=%d, item=%d) = %.3f (SIR'=%.3f SUR'=%.3f SUIR'=%.3f)\n",
		ex.User, ex.Item, ex.Prediction.Value, ex.Prediction.SIR, ex.Prediction.SUR, ex.Prediction.SUIR)
	if len(ex.ItemEvidence) > 0 {
		b.WriteString("because of similar items:\n")
		for _, e := range ex.ItemEvidence {
			fmt.Fprintf(&b, "  item %-5d sim %.3f rated %.2f (%s) weight %.1f%%\n",
				e.Item, e.Similarity, e.Rating, provenance(e.Original), 100*e.Weight)
		}
	}
	if len(ex.UserEvidence) > 0 {
		b.WriteString("because of like-minded users:\n")
		for _, e := range ex.UserEvidence {
			fmt.Fprintf(&b, "  user %-5d sim %.3f rated %.2f (%s) weight %.1f%%\n",
				e.User, e.Similarity, e.Rating, provenance(e.Original), 100*e.Weight)
		}
	}
	return b.String()
}

func provenance(original bool) string {
	if original {
		return "observed"
	}
	return "smoothed"
}
