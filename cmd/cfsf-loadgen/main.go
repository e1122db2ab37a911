// cfsf-loadgen replays committed load scenarios against a cfsf-server
// and gates the run on the scenario's SLOs.
//
// Usage:
//
//	cfsf-loadgen -list                                # committed scenarios
//	cfsf-loadgen -server-bin ./cfsf-server steady     # spawn a server, run one scenario
//	cfsf-loadgen -target http://host:8080 steady      # drive an already-running server
//	cfsf-loadgen -server-bin ./cfsf-server -bench steady killrecover | benchjson -max ...
//
// Each run is reproducible: the report prints the resolved config hash,
// the seed, and the request-stream fingerprint; re-running the same
// scenario version with the same seed (and overrides) replays the
// byte-identical request sequence.
//
// Exit status: 0 all scenarios passed their SLOs, 1 at least one SLO
// breached, 2 usage or configuration error (reported before any request
// is sent).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"cfsf/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("cfsf-loadgen: ")

	var (
		list      = flag.Bool("list", false, "list committed scenarios and exit")
		target    = flag.String("target", "", "base URL(s) of running cfsf-server(s), comma-separated for round-robin over a replica fleet; empty spawns one with -server-bin")
		serverBin = flag.String("server-bin", "", "path to a prebuilt cfsf-server binary (required without -target)")
		dataDir   = flag.String("data-dir", "", "durability root for the spawned server (default: per-run temp dir)")
		fsync     = flag.String("fsync", "always", "WAL fsync policy for the spawned server")
		serverArg = flag.String("server-arg", "", "extra flags appended verbatim to the spawned server's argument vector, space-separated (e.g. '-wal-segment-bytes 4096 -snapshot-keep 1')")
		duration  = flag.Int("duration-ms", 0, "override scenario duration_ms (0 = scenario value)")
		qps       = flag.Float64("qps", 0, "override scenario qps (0 = scenario value)")
		seed      = flag.Int64("seed", 0, "override scenario seed (0 = scenario value)")
		jsonOut   = flag.Bool("json", false, "emit the JSON report(s) to stdout instead of text")
		bench     = flag.Bool("bench", false, "emit go-bench-format result lines (for cmd/benchjson)")
		outPath   = flag.String("o", "", "also write the JSON report array to this file")
		verbose   = flag.Bool("v", false, "log runner progress to stderr")

		replicas   = flag.Int("replicas", 0, "fleet mode: spawn a leader plus replicas-1 followers and drive them round-robin (needs -server-bin)")
		killMS     = flag.Int("kill-follower-ms", 0, "fleet mode: SIGKILL one follower this many ms into the run, restart it, and report catch-up time")
		cmpSingle  = flag.Bool("compare-single", false, "fleet mode: first run the same stream against one node and report the fleet/single scaling ratio")
		adminToken = flag.String("admin-token", "", "shared admin bearer token forwarded to spawned servers (and used for parity probes)")
		maxQPS     = flag.Int("max-qps", 0, "per-node -max-qps admission cap forwarded to spawned servers (fleet scaling runs)")
	)
	flag.Parse()

	if *list {
		for _, name := range loadgen.Names() {
			fmt.Println(name)
		}
		return 0
	}
	if flag.NArg() == 0 {
		log.Printf("no scenarios named; try -list or pass a scenario name/path")
		return 2
	}
	if *target == "" && *serverBin == "" {
		log.Printf("need either -target URL or -server-bin path")
		return 2
	}
	if *replicas > 0 {
		if *serverBin == "" || *target != "" {
			log.Printf("fleet mode (-replicas) spawns its own processes: needs -server-bin, not -target")
			return 2
		}
		if *replicas < 2 {
			log.Printf("fleet mode needs -replicas >= 2")
			return 2
		}
	}

	// Resolve and validate every scenario up front: a bad config in the
	// third argument must fail before the first sends a single request.
	var scenarios []*loadgen.Scenario
	for _, arg := range flag.Args() {
		sc, err := loadgen.Load(arg)
		if err != nil {
			log.Printf("%v", err)
			return 2
		}
		if *duration > 0 {
			sc.DurationMS = *duration
			if sc.Kind == loadgen.KindKillRecover && sc.KillAfterMS >= sc.DurationMS {
				sc.KillAfterMS = sc.DurationMS / 2
			}
		}
		if *qps > 0 {
			sc.QPS = *qps
		}
		if *seed != 0 {
			sc.Seed = *seed
		}
		if err := sc.Validate(); err != nil {
			log.Printf("after overrides: %v", err)
			return 2
		}
		if sc.Kind == loadgen.KindKillRecover && (*target != "" || *replicas > 0) {
			log.Printf("scenario %q: killrecover needs a single self-spawned server (no -target, no -replicas; fleet mode has -kill-follower-ms instead)", sc.Name)
			return 2
		}
		scenarios = append(scenarios, sc)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &loadgen.Runner{}
	if *verbose {
		runner.Logf = log.Printf
	}

	var reports []*loadgen.Report
	allPass := true
	emit := func(rep *loadgen.Report) error {
		reports = append(reports, rep)
		switch {
		case *bench:
			for _, line := range rep.BenchLines() {
				fmt.Println(line)
			}
		case *jsonOut:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return fmt.Errorf("encode report: %w", err)
			}
		default:
			fmt.Print(rep.Text())
		}
		return nil
	}
	for _, sc := range scenarios {
		if *replicas > 0 {
			out, err := runFleet(ctx, runner, sc, fleetOpts{
				serverBin:      *serverBin,
				dataDir:        *dataDir,
				fsync:          *fsync,
				serverArgs:     strings.Fields(*serverArg),
				replicas:       *replicas,
				killFollowerMS: *killMS,
				compareSingle:  *cmpSingle,
				adminToken:     *adminToken,
				maxQPS:         *maxQPS,
				logf:           runner.Logf,
			})
			if err != nil {
				log.Printf("scenario %q: %v", sc.Name, err)
				return 2
			}
			// The single-node baseline's SLO verdict is informational
			// (out.pass already excludes it): a capacity-capped node
			// shedding load is the expected contrast, not a failure.
			for _, rep := range out.reports {
				if err := emit(rep); err != nil {
					log.Printf("%v", err)
					return 2
				}
			}
			for _, line := range out.bench {
				if *bench {
					fmt.Println(line)
				} else {
					log.Printf("fleet: %s", line)
				}
			}
			if !out.pass {
				allPass = false
			}
			continue
		}
		rep, err := runScenario(ctx, runner, sc, *target, *serverBin, *dataDir, *fsync, strings.Fields(*serverArg))
		if err != nil {
			log.Printf("scenario %q: %v", sc.Name, err)
			return 2
		}
		if !rep.Pass {
			allPass = false
		}
		if err := emit(rep); err != nil {
			log.Printf("%v", err)
			return 2
		}
	}

	if *outPath != "" {
		raw, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			log.Printf("write %s: %v", *outPath, err)
			return 2
		}
	}

	if !allPass {
		log.Printf("SLO breach: at least one scenario failed its gates")
		return 1
	}
	return 0
}

// runScenario builds the request stream, resolves the target (external
// URL or a freshly spawned server on a private data dir), runs, and
// tears the target down.
func runScenario(ctx context.Context, runner *loadgen.Runner, sc *loadgen.Scenario, targetURL, serverBin, dataDir, fsync string, serverArgs []string) (*loadgen.Report, error) {
	st, err := loadgen.BuildStream(sc)
	if err != nil {
		return nil, err
	}

	var tgt loadgen.Target
	if targetURL != "" {
		// Comma-separated URLs form a round-robin fleet target; control
		// probes (readiness, drain) go to the first member, by convention
		// the leader.
		var members []loadgen.Target
		for _, u := range strings.Split(targetURL, ",") {
			if u = strings.TrimSpace(u); u != "" {
				members = append(members, loadgen.StaticTarget(strings.TrimSuffix(u, "/")))
			}
		}
		if len(members) > 1 {
			mt, err := loadgen.NewMultiTarget(members...)
			if err != nil {
				return nil, err
			}
			tgt = mt
			runner.ControlTarget = members[0]
			defer func() { runner.ControlTarget = nil }()
		} else if len(members) == 1 {
			tgt = members[0]
		} else {
			return nil, fmt.Errorf("-target %q resolves to no URLs", targetURL)
		}
	} else {
		dir := dataDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "cfsf-loadgen-"+sc.Name+"-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		} else {
			dir = filepath.Join(dir, sc.Name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		var logSink io.Writer
		if runner.Logf != nil {
			logSink = os.Stderr
		}
		proc, err := loadgen.SpawnServer(loadgen.ProcOptions{
			ServerBin:    serverBin,
			DataDir:      dir,
			Dataset:      sc.Dataset,
			GrowthMargin: sc.GrowthMargin(),
			Fsync:        fsync,
			Stderr:       logSink,
			ExtraArgs:    serverArgs,
		})
		if err != nil {
			return nil, err
		}
		tgt = proc
	}
	defer func() {
		if err := tgt.Close(); err != nil {
			log.Printf("close target: %v", err)
		}
	}()

	return runner.Run(ctx, st, tgt)
}
