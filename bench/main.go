// Command bench is the repository's one latency ledger. It generates a
// fixed dataset and a seeded request stream, boots the real cfsf-server
// on them, drives it over loopback, checks what it answers, and prints
// every end-to-end metric (-trace 0) or every per-layer metric (-trace 1)
// by name. README.md in this directory says what each number means.
//
// Run it through run.sh, which builds it and the server:
//
//	bash bench/run.sh -seed 1                       # whole ledger
//	bash bench/run.sh -workload mixed -seed 7 -seconds 26 -trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() (code int) {
	var (
		workloadName = flag.String("workload", "all", "workload to run: read_hot, mixed, write_recover, or all")
		seed         = flag.Int64("seed", 1, "seed of the request stream")
		seconds      = flag.Int("seconds", 26, "length of the measured phases in seconds")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, 1: per-layer metrics from the traced run, -1: both")
		root         = flag.String("root", "..", "repository root (holds bench/ and cmd/)")
		serverBin    = flag.String("server-bin", "", "cfsf-server binary built from -root (run.sh builds it)")
	)
	flag.Parse()
	if *serverBin == "" {
		fmt.Fprintln(os.Stderr, "bench: -server-bin is required; run bench/run.sh, which builds it")
		return 2
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace one of 0, 1")
		return 2
	}
	var todo []workload
	if *workloadName == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	traces := []bool{*trace == 1}
	if *trace == -1 {
		traces = []bool{false, true}
	}

	outDir := filepath.Join(*root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}

	// One sweep for every way out: return, failed check, signal, panic.
	j := &janitor{}
	defer j.sweep()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		j.sweep()
		os.Exit(130)
	}()

	commit := gitCommit(*root)
	for _, w := range todo {
		for _, traced := range traces {
			work, err := os.MkdirTemp(outDir, "run-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 2
			}
			j.addDir(work)
			// Every server this run boots logs here; a failed run is read from it.
			srvLog, err := os.Create(filepath.Join(outDir, fmt.Sprintf("server-%s-trace%d.log", w.Name, btoi(traced))))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 2
			}
			b := &bench{
				cfg:    resolveConfig(w, *seed, *seconds, traced, commit),
				j:      j,
				bin:    *serverBin,
				work:   work,
				outDir: outDir,
				srvLog: srvLog,
				logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "bench: "+w.Name+": "+format+"\n", args...)
				},
			}
			ok := b.runAndReport(os.Stdout)
			j.sweep()
			_ = srvLog.Close() // a log; its last lines are not worth failing the run for
			if !ok {
				code = 1
			}
		}
	}
	return code
}

// gitCommit names the measured commit, or "unknown" outside a work tree
// (the driver's checkout is not one).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
