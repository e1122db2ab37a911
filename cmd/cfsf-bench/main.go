// cfsf-bench regenerates every table and figure of the paper's
// evaluation section (§V) on the synthetic dataset and prints them in
// the paper's layout. Select individual experiments with flags, or run
// everything with -all. EXPERIMENTS.md is produced from this output.
//
// Usage:
//
//	cfsf-bench -all
//	cfsf-bench -table2 -fig3
//	cfsf-bench -all -fraction 0.25   # subsample targets for a quick pass
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cfsf/internal/experiments"
	"cfsf/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfsf-bench: ")

	var (
		all      = flag.Bool("all", false, "run every experiment")
		table1   = flag.Bool("table1", false, "Table I: dataset statistics")
		table2   = flag.Bool("table2", false, "Table II: CFSF vs SUR vs SIR")
		table3   = flag.Bool("table3", false, "Table III: state-of-the-art comparison")
		fig2     = flag.Bool("fig2", false, "Fig. 2: accuracy vs M")
		fig3     = flag.Bool("fig3", false, "Fig. 3: accuracy vs K")
		fig4     = flag.Bool("fig4", false, "Fig. 4: accuracy vs C")
		fig5     = flag.Bool("fig5", false, "Fig. 5: response time vs testset size")
		fig6     = flag.Bool("fig6", false, "Fig. 6: sensitivity of lambda")
		fig7     = flag.Bool("fig7", false, "Fig. 7: sensitivity of delta")
		fig8     = flag.Bool("fig8", false, "Fig. 8: sensitivity of w")
		ablate   = flag.Bool("ablations", false, "design-choice ablations")
		topn     = flag.Bool("topn", false, "extension: top-N ranking quality")
		extgrid  = flag.Bool("extgrid", false, "extension: MAE vs post-2009 baselines")
		scaling  = flag.Bool("scaling", false, "extension: parallel throughput scaling")
		content  = flag.Bool("content", false, "extension: content-blended GIS")
		erranal  = flag.Bool("erroranalysis", false, "extension: MAE by item popularity")
		sig      = flag.Bool("significance", false, "extension: paired t-tests vs each method")
		divers   = flag.Bool("diversity", false, "extension: MMR diversity trade-off")
		fraction = flag.Float64("fraction", 1.0, "fraction of test targets to evaluate (speed/fidelity trade)")
		seed     = flag.Int64("seed", 1, "dataset generator seed")
	)
	flag.Parse()

	if !(*all || *table1 || *table2 || *table3 || *fig2 || *fig3 || *fig4 ||
		*fig5 || *fig6 || *fig7 || *fig8 || *ablate || *topn || *extgrid || *scaling || *content || *erranal || *sig || *divers) {
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	env := experiments.NewEnv()
	env.TargetFraction = *fraction
	if *seed != 1 {
		cfg := env.Data.Config
		cfg.Seed = *seed
		env.Data = synth.MustGenerate(cfg)
	}
	log.Printf("dataset ready: %d users × %d items, %d ratings (%.1fs)",
		env.Data.Matrix.NumUsers(), env.Data.Matrix.NumItems(),
		env.Data.Matrix.NumRatings(), time.Since(start).Seconds())

	section := func(on bool, name string, run func() error) {
		if !on && !*all {
			return
		}
		t := time.Now()
		if err := run(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		log.Printf("%s done in %.1fs", name, time.Since(t).Seconds())
	}

	section(*table1, "table1", func() error {
		fmt.Println(env.TableI())
		return nil
	})
	section(*table2, "table2", func() error {
		_, tbl, err := env.TableII()
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	})
	section(*table3, "table3", func() error {
		_, tbl, err := env.TableIII()
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	})
	section(*fig2, "fig2", curveSection(env.Fig2M, "Fig. 2 — MAE vs M similar items (ML_300)", "M"))
	section(*fig3, "fig3", curveSection(env.Fig3K, "Fig. 3 — MAE vs K like-minded users (ML_300)", "K"))
	section(*fig4, "fig4", curveSection(env.Fig4C, "Fig. 4 — MAE vs C user clusters (ML_300)", "C"))
	section(*fig5, "fig5", func() error {
		points, err := env.Fig5ResponseTime()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig5Table(points))
		return nil
	})
	section(*fig6, "fig6", curveSection(env.Fig6Lambda, "Fig. 6 — sensitivity of λ (ML_300)", "λ"))
	section(*fig7, "fig7", curveSection(env.Fig7Delta, "Fig. 7 — sensitivity of δ (ML_300)", "δ"))
	section(*fig8, "fig8", curveSection(env.Fig8W, "Fig. 8 — sensitivity of w = 1−ε (ML_300)", "w"))
	section(*ablate, "ablations", func() error {
		results, err := env.Ablations()
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationTable(results))
		return nil
	})
	section(*topn, "topn", func() error {
		rows, err := env.TopNRanking(nil, 10)
		if err != nil {
			return err
		}
		fmt.Println(experiments.TopNTable(10, rows))
		return nil
	})
	section(*extgrid, "extgrid", func() error {
		_, tbl, err := env.ExtensionGrid()
		if err != nil {
			return err
		}
		fmt.Println(tbl)
		return nil
	})
	section(*scaling, "scaling", func() error {
		points, err := env.ParallelScaling(nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ScalingTable(points))
		return nil
	})
	section(*content, "content", func() error {
		points, err := env.ContentBoost(nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ContentTable(points))
		return nil
	})
	section(*erranal, "erroranalysis", func() error {
		buckets, err := env.ErrorAnalysis(nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ErrorAnalysisTable(nil, buckets))
		return nil
	})
	section(*sig, "significance", func() error {
		rows, err := env.Significance(nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.SignificanceTable(rows))
		return nil
	})
	section(*divers, "diversity", func() error {
		points, err := env.Diversity(nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.DiversityTable(points))
		return nil
	})

	log.Printf("all requested experiments finished in %.1fs", time.Since(start).Seconds())
}

func curveSection(run func() ([]experiments.FigureCurve, error), title, param string) func() error {
	return func() error {
		curves, err := run()
		if err != nil {
			return err
		}
		fmt.Println(experiments.CurveTable(title, param, curves))
		return nil
	}
}
