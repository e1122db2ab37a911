// cfsf is the command-line front end of the library: train a CFSF model
// on a u.data file (or the built-in synthetic dataset) and predict,
// recommend or evaluate.
//
// Usage:
//
//	cfsf predict   -data u.data -user 12 -item 97
//	cfsf recommend -data u.data -user 12 -n 10
//	cfsf evaluate  -data u.data -method cfsf -train 300 -test 200 -given 10
//	cfsf explain   -data u.data -user 12 -item 97
//	cfsf compare   -data u.data -a cfsf -b sur
//	cfsf topn      -data u.data -method cfsf -n 10
//	cfsf cv        -data u.data -method cfsf -k 5
//	cfsf stats     -data u.data
//	cfsf save      -data u.data -out model.cfsf
//
// Omit -data (or pass -data synth) to use the built-in generator; .csv
// files parse as MovieLens ratings.csv, everything else as u.data. All
// user/item ids on the command line are 0-based dense ids, matching the
// order of first appearance in the file.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cfsf"
	"cfsf/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfsf: ")

	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "predict":
		runPredict(args)
	case "recommend":
		runRecommend(args)
	case "evaluate":
		runEvaluate(args)
	case "stats":
		runStats(args)
	case "save":
		runSave(args)
	case "explain":
		runExplain(args)
	case "compare":
		runCompare(args)
	case "topn":
		runTopN(args)
	case "cv":
		runCV(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cfsf <command> [flags]

commands:
  predict    predict one rating           (-data|-model -user -item)
  recommend  top-N recommendations        (-data|-model -user -n)
  evaluate   MAE under the Given-N split  (-data -method -train -test -given)
  stats      dataset statistics           (-data)
  save       train and save a model       (-data -out model.cfsf)
  explain    explain one prediction       (-data|-model -user -item)
  compare    two methods + paired t-test  (-data -a cfsf -b sur ...)
  topn       ranking quality P@N/R@N/NDCG (-data -method -n)
  cv         k-fold cross-validation      (-data -method -k)

pass -data <u.data path> or omit for the built-in synthetic dataset`)
	os.Exit(2)
}

// loadMatrix reads the dataset named by -data ("" or "synth" = generated).
func loadMatrix(path string, seed int64) *cfsf.Matrix {
	if path == "" || path == "synth" {
		cfg := cfsf.DefaultSynthConfig()
		cfg.Seed = seed
		return cfsf.GenerateSynthetic(cfg).Matrix
	}
	m, err := cfsf.ReadRatingsAuto(path)
	if err != nil {
		log.Fatalf("load %s: %v", path, err)
	}
	return m
}

// modelFlags registers the shared CFSF hyperparameter flags.
func modelFlags(fs *flag.FlagSet) *cfsf.Config {
	cfg := cfsf.DefaultConfig()
	fs.IntVar(&cfg.M, "M", cfg.M, "similar items")
	fs.IntVar(&cfg.K, "K", cfg.K, "like-minded users")
	fs.IntVar(&cfg.Clusters, "C", cfg.Clusters, "user clusters")
	fs.Float64Var(&cfg.Lambda, "lambda", cfg.Lambda, "SUR' weight in the fusion")
	fs.Float64Var(&cfg.Delta, "delta", cfg.Delta, "SUIR' weight in the fusion")
	fs.Float64Var(&cfg.OriginalWeight, "epsilon", cfg.OriginalWeight, "weight of original ratings (Eq. 11)")
	return &cfg
}

func runPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	data := fs.String("data", "", "u.data path, or synth")
	modelPath := fs.String("model", "", "saved model path (skips training)")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	user := fs.Int("user", 0, "user id (0-based)")
	item := fs.Int("item", 0, "item id (0-based)")
	cfg := modelFlags(fs)
	fs.Parse(args)

	model := loadOrTrain(*modelPath, *data, *seed, *cfg)
	p := model.PredictDetailed(*user, *item)
	fmt.Printf("prediction(user=%d, item=%d) = %.3f\n", *user, *item, p.Value)
	fmt.Printf("  SIR'=%.3f(%v) SUR'=%.3f(%v) SUIR'=%.3f(%v) local=%dx%d\n",
		p.SIR, p.HasSIR, p.SUR, p.HasSUR, p.SUIR, p.HasSUIR, p.ItemsUsed, p.UsersUsed)
}

func runRecommend(args []string) {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	data := fs.String("data", "", "u.data path, or synth")
	modelPath := fs.String("model", "", "saved model path (skips training)")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	user := fs.Int("user", 0, "user id (0-based)")
	n := fs.Int("n", 10, "number of recommendations")
	cfg := modelFlags(fs)
	fs.Parse(args)

	model := loadOrTrain(*modelPath, *data, *seed, *cfg)
	for rank, rec := range model.Recommend(*user, *n) {
		fmt.Printf("%2d. item %-6d predicted %.3f\n", rank+1, rec.Item, rec.Score)
	}
}

func runEvaluate(args []string) {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	data := fs.String("data", "", "u.data path, or synth")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	method := fs.String("method", "cfsf", "cfsf or one of: sir sur sf scbpcc emdp pd am")
	nTrain := fs.Int("train", 300, "training users (first N)")
	nTest := fs.Int("test", 200, "test users (last N)")
	given := fs.Int("given", 10, "revealed ratings per test user")
	cfg := modelFlags(fs)
	fs.Parse(args)

	m := loadMatrix(*data, *seed)
	split, err := cfsf.MLSplit(m, *nTrain, *nTest, *given)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cfsf.Evaluate(pickMethod(*method, *cfg), split, cfsf.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("method=%s train=%d given=%d targets=%d\n", *method, *nTrain, *given, res.NumTargets)
	fmt.Printf("MAE=%.4f RMSE=%.4f fit=%v predict=%v\n",
		res.MAE, res.RMSE, res.FitTime.Round(time.Millisecond), res.PredictTime.Round(time.Millisecond))
}

func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	data := fs.String("data", "", "u.data path, or synth")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	fs.Parse(args)

	m := loadMatrix(*data, *seed)
	fmt.Printf("users     %d\n", m.NumUsers())
	fmt.Printf("items     %d\n", m.NumItems())
	fmt.Printf("ratings   %d\n", m.NumRatings())
	fmt.Printf("density   %.2f%%\n", 100*m.Density())
	fmt.Printf("avg/user  %.1f\n", m.AvgRatingsPerUser())
	fmt.Printf("scale     %g..%g\n", m.MinRating(), m.MaxRating())
	fmt.Printf("mean      %.3f\n", m.GlobalMean())
}

// runExplain prints the evidence behind one prediction.
func runExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	data := fs.String("data", "", "ratings file (u.data or .csv), or synth")
	modelPath := fs.String("model", "", "saved model path (skips training)")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	user := fs.Int("user", 0, "user id (0-based)")
	item := fs.Int("item", 0, "item id (0-based)")
	top := fs.Int("top", 5, "evidence entries per side")
	cfg := modelFlags(fs)
	fs.Parse(args)

	model := loadOrTrain(*modelPath, *data, *seed, *cfg)
	fmt.Print(model.Explain(*user, *item, *top))
}

// runCompare evaluates two methods on the same split and reports the
// paired t-test over their absolute errors.
func runCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	data := fs.String("data", "", "ratings file (u.data or .csv), or synth")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	methodA := fs.String("a", "cfsf", "first method")
	methodB := fs.String("b", "sur", "second method")
	nTrain := fs.Int("train", 300, "training users (first N)")
	nTest := fs.Int("test", 200, "test users (last N)")
	given := fs.Int("given", 10, "revealed ratings per test user")
	cfg := modelFlags(fs)
	fs.Parse(args)

	m := loadMatrix(*data, *seed)
	split, err := cfsf.MLSplit(m, *nTrain, *nTest, *given)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := cfsf.Compare(pickMethod(*methodA, *cfg), pickMethod(*methodB, *cfg), split, cfsf.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s MAE=%.4f  vs  %s MAE=%.4f  (n=%d targets)\n",
		*methodA, cmp.MAEA, *methodB, cmp.MAEB, cmp.TTest.DF+1)
	verdict := "NOT significant"
	if cmp.TTest.Significant {
		verdict = "significant"
	}
	fmt.Printf("paired t-test: t=%.3f df=%d p=%.2g -> difference is %s at α=0.05\n",
		cmp.TTest.T, cmp.TTest.DF, cmp.TTest.P, verdict)
}

// runTopN evaluates top-N ranking quality under the Given-N protocol.
func runTopN(args []string) {
	fs := flag.NewFlagSet("topn", flag.ExitOnError)
	data := fs.String("data", "", "ratings file (u.data or .csv), or synth")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	method := fs.String("method", "cfsf", "cfsf or a baseline name")
	nTrain := fs.Int("train", 300, "training users (first N)")
	nTest := fs.Int("test", 200, "test users (last N)")
	given := fs.Int("given", 10, "revealed ratings per test user")
	n := fs.Int("n", 10, "list length")
	thr := fs.Float64("relevance", 4, "relevance threshold")
	cfg := modelFlags(fs)
	fs.Parse(args)

	m := loadMatrix(*data, *seed)
	split, err := cfsf.MLSplit(m, *nTrain, *nTest, *given)
	if err != nil {
		log.Fatal(err)
	}
	p := pickMethod(*method, *cfg)
	if err := p.Fit(split.Matrix); err != nil {
		log.Fatal(err)
	}
	r := cfsf.EvaluateRanking(p, split, cfsf.RankingOptions{N: *n, RelevanceThreshold: *thr})
	fmt.Printf("method=%s N=%d users=%d\n", *method, r.N, r.Users)
	fmt.Printf("Precision@%d=%.4f Recall@%d=%.4f NDCG@%d=%.4f\n",
		r.N, r.PrecisionAtN, r.N, r.RecallAtN, r.N, r.NDCGAtN)
}

// runCV runs k-fold cross-validation over the full matrix.
func runCV(args []string) {
	fs := flag.NewFlagSet("cv", flag.ExitOnError)
	data := fs.String("data", "", "ratings file (u.data or .csv), or synth")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	method := fs.String("method", "cfsf", "cfsf or a baseline name")
	k := fs.Int("k", 5, "number of folds")
	cfg := modelFlags(fs)
	fs.Parse(args)

	m := loadMatrix(*data, *seed)
	res, err := cfsf.CrossValidate(func() cfsf.Predictor {
		return pickMethod(*method, *cfg)
	}, m, *k, *seed, cfsf.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for f, mae := range res.FoldMAE {
		fmt.Printf("fold %d MAE=%.4f\n", f+1, mae)
	}
	fmt.Printf("mean MAE=%.4f ± %.4f (%d folds)\n", res.Mean, res.Std, *k)
}

// pickMethod builds a fresh predictor by name.
func pickMethod(name string, cfg cfsf.Config) cfsf.Predictor {
	if name == "cfsf" {
		return cfsf.NewPredictor(cfg)
	}
	p, err := cfsf.NewBaseline(name)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

// runSave trains on the dataset and writes the model snapshot.
func runSave(args []string) {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	data := fs.String("data", "", "u.data path, or synth")
	seed := fs.Int64("seed", 1, "synthetic dataset seed")
	out := fs.String("out", "model.cfsf", "output path for the model file")
	cfg := modelFlags(fs)
	fs.Parse(args)

	m := loadMatrix(*data, *seed)
	model := train(m, *cfg)
	if err := model.SaveFile(*out); err != nil {
		log.Fatalf("save %s: %v", *out, err)
	}
	log.Printf("model saved to %s", *out)
}

// loadOrTrain loads a saved model when -model is set, otherwise trains
// on the dataset.
func loadOrTrain(modelPath, data string, seed int64, cfg cfsf.Config) *cfsf.Model {
	if modelPath != "" {
		t := time.Now()
		model, err := core.LoadFile(modelPath)
		if err != nil {
			log.Fatalf("load model %s: %v", modelPath, err)
		}
		log.Printf("model loaded in %v", time.Since(t).Round(time.Millisecond))
		return model
	}
	return train(loadMatrix(data, seed), cfg)
}

func train(m *cfsf.Matrix, cfg cfsf.Config) *cfsf.Model {
	t := time.Now()
	model, err := cfsf.Train(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trained in %v (GIS %v, clustering %v)", time.Since(t).Round(time.Millisecond),
		model.Stats().GISDuration.Round(time.Millisecond),
		model.Stats().ClusterDuration.Round(time.Millisecond))
	return model
}
