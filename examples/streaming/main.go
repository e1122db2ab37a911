// streaming demonstrates the paper's §VI future-work extension: keeping
// the model (and its GIS) up-to-date as ratings stream in, without
// rerunning the whole offline phase. A new user arrives, rates a few
// movies one by one, and the model's recommendations for them sharpen
// after every incremental refresh — at a fraction of full retraining
// cost.
package main

import (
	"fmt"
	"log"
	"time"

	"cfsf"
)

func main() {
	data := cfsf.GenerateSynthetic(cfsf.DefaultSynthConfig())
	model, err := cfsf.Train(data.Matrix, cfsf.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fullTrain := model.Stats().TotalDuration
	fmt.Printf("initial offline phase: %v\n\n", fullTrain.Round(time.Millisecond))

	// A brand-new user who loves Musicals arrives and rates five musical
	// movies 5 stars, one session at a time.
	newUser := data.Matrix.NumUsers()
	var musicals []int
	for i, genres := range data.ItemGenres {
		if data.GenreNames[genres[0]] == "Musical" {
			musicals = append(musicals, i)
		}
		if len(musicals) == 8 {
			_ = i
			break
		}
	}
	if len(musicals) < 6 {
		log.Fatal("not enough musicals in the catalogue")
	}

	probe := musicals[5] // held-out musical: does its prediction rise?
	fmt.Printf("probe movie: %q\n", data.ItemTitles[probe])
	fmt.Printf("%-28s %-10s %-12s %s\n", "event", "refresh", "pred(probe)", "top recommendation")

	cur := model
	for step, item := range musicals[:5] {
		t := time.Now()
		cur, err = cur.Apply([]cfsf.RatingUpdate{{User: newUser, Item: item, Value: 5}})
		if err != nil {
			log.Fatal(err)
		}
		refresh := time.Since(t)

		pred := cur.Predict(newUser, probe)
		top := "-"
		if recs := cur.Recommend(newUser, 1); len(recs) > 0 {
			top = data.ItemTitles[recs[0].Item]
		}
		fmt.Printf("rated %-22q %-10v %-12.3f %s\n",
			shorten(data.ItemTitles[item]), refresh.Round(time.Millisecond), pred, top)
		_ = step
	}

	fmt.Printf("\nincremental refresh vs full retrain: the offline phase took %v;\n", fullTrain.Round(time.Millisecond))
	fmt.Println("each streamed rating was folded in with GIS.Refresh + centroid")
	fmt.Println("reassignment instead (see Model.Apply).")
}

func shorten(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}
