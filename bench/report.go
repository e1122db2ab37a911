package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// endToEndNames are the end-to-end metrics BENCHMARK.json lists, in its
// order (perLayerNames, in traced.go, are the per-layer ones). Every one
// of them is reported on every workload. A run prints the issue's other
// end-to-end numbers too — every latency median and p95, rps, recovery_s
// — but identical runs of one commit spread them by more than the 25 % a
// bound may be, so a gate on them would reject the benchmark, not a
// change. bench/README.md has the numbers.
var endToEndNames = []string{"setup_s", "warmup_s", "cpu_ms_per_req", "disk_bytes_per_rating"}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runAndReport runs the workload once, prints one line per metric and
// the result line, stores both with the resolved configuration under
// bench/out, and reports whether every output was correct.
func (b *bench) runAndReport(stdout io.Writer) bool {
	w := b.cfg.Workload
	m := b.cfg.Dataset
	b.stream = newStream(b.cfg.Seed, w, m.Users, m.Items, b.cfg.openCount()+b.cfg.closedCount())
	b.cfg.StreamSHA256 = streamFingerprint(b.stream)
	hash := b.cfg.hash()
	cfgJSON, err := json.Marshal(b.cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal config: %v", err)) // plain struct of scalars and strings
	}
	fmt.Fprintf(stdout, "config %s\nconfig_sha256 %s\n", cfgJSON, hash)

	names := endToEndNames
	run := b.runEndToEnd
	if b.cfg.Trace {
		names, run = perLayerNames, b.runTraced
	}
	ms, err := run()
	for _, e := range b.tally.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: failed: %s\n", w.Name, e)
	}
	if err != nil {
		// The run could not be completed; there are no numbers to report.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return false
	}
	res := result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   map[string]metric{},
	}
	for _, name := range ms.names {
		mt := ms.byName[name]
		fmt.Fprintf(stdout, "%s %s %.6g %s n=%d\n", w.Name, name, mt.Value, mt.Unit, mt.n)
	}
	for _, name := range names {
		mt, ok := ms.byName[name]
		if !ok {
			panic("bench: metric " + name + " was not measured") // a bug: the lists and the run disagree
		}
		res.Metrics[name] = mt
	}
	fmt.Fprintf(stdout, "%s error_rate %.6g ratio n=%d\n", w.Name, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)

	line, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal result: %v", err)) // every value is a finite float64
	}
	stored, err := json.MarshalIndent(map[string]any{
		"config": b.cfg, "config_sha256": hash, "result": res, "all_metrics": ms.byName,
	}, "", "  ")
	if err == nil {
		name := fmt.Sprintf("result-%s-trace%d-seed%d.json", w.Name, btoi(b.cfg.Trace), b.cfg.Seed)
		err = os.WriteFile(filepath.Join(b.outDir, name), append(stored, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: store result: %v\n", w.Name, err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
