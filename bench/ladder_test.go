package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// smallRef trains the reference once for all the tests: a 120×150
// dataset that went through a u.data file, as the server's would.
var smallRef = sync.OnceValues(func() (*core.Model, error) {
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.Items, cfg.MinPerUser, cfg.MeanPerUser = 120, 150, 20, 35
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	udata := filepath.Join(dir, "u.data")
	if err := ratings.WriteUDataFile(udata, ds.Matrix); err != nil {
		return nil, err
	}
	m, err := ratings.ReadUDataFile(udata)
	if err != nil {
		return nil, err
	}
	return core.Train(m, core.DefaultConfig())
})

// smallBench is a bench with no spawned server: enough for the
// in-process rungs.
func smallBench(t *testing.T, w workload) *bench {
	t.Helper()
	ref, err := smallRef()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{
		cfg:    resolvedConfig{Workload: w, Seed: 1},
		work:   t.TempDir(),
		outDir: t.TempDir(),
		ref:    ref,
		logf:   t.Logf,
	}
}

// ladderTimeLimit keeps the smoke test cheap enough to run with every
// change; 0 switches the check off.
var ladderTimeLimit = 5 * time.Second

// The ladder calls the public functions of core, wal, lifecycle and
// server directly; this keeps drift in any of them from reaching the
// benchmark unnoticed. It also checks the ladder's own promise: every
// rung answers every read as the core rung did.
func TestLadderSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		b := smallBench(t, w)
		m := b.ref.Matrix()
		reqs := newStream(1, w, m.NumUsers(), m.NumItems(), 30)
		var ms metricSet
		lr, err := b.ladder(reqs, &ms)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if b.tally.failed != 0 {
			t.Fatalf("%s: %d of %d checks failed: %v", w.Name, b.tally.failed, b.tally.attempted, b.tally.errs)
		}
		for _, name := range perLayerNames {
			// The rest needs the spawned server.
			if strings.HasPrefix(name, "cfsf-server.") || name == "bench.sched_lag_p95_ms" || name == "bench.client_cpu_ms_per_req" {
				continue
			}
			if _, ok := ms.byName[name]; !ok {
				t.Errorf("%s: the ladder did not measure %s", w.Name, name)
			}
		}
		if got := ms.byName["core.predict_us_p50"].Value; got <= 0 {
			t.Errorf("%s: core.predict_us_p50 = %v", w.Name, got)
		}
		writes := w.Shares[opRate] + w.Shares[opRate16]
		if got := ms.byName["wal.bytes_per_rating"].Value; (got > 0) != (writes > 0) {
			t.Errorf("%s: wal.bytes_per_rating = %v with %d%% writes", w.Name, got, writes)
		}
		perReq := map[int]int{}
		for _, s := range lr.tracer.spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %+v ends before it starts", w.Name, s)
			}
			perReq[s.Req]++
		}
		if len(perReq) != len(reqs) {
			t.Errorf("%s: spans cover %d of %d requests", w.Name, len(perReq), len(reqs))
		}
		if err := b.writeTrace(lr.tracer, "test"); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); ladderTimeLimit > 0 && d > ladderTimeLimit {
		t.Errorf("ladder smoke took %v, want under %v", d, ladderTimeLimit)
	}
}

// BENCHMARK.json is the contract other changes are measured against;
// the names it lists are the names the two kinds of run report.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(in []struct{ Name string }) string {
		var out []string
		for _, x := range in {
			out = append(out, x.Name)
		}
		return strings.Join(out, " ")
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.Name)
	}
	if got, want := names(spec.Workloads), strings.Join(ws, " "); got != want {
		t.Errorf("workloads: BENCHMARK.json has %q, the benchmark %q", got, want)
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEndNames, " "); got != want {
		t.Errorf("end_to_end: BENCHMARK.json has %q, the benchmark %q", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayerNames, " "); got != want {
		t.Errorf("per_layer: BENCHMARK.json has %q, the benchmark %q", got, want)
	}
}

func TestProcReaders(t *testing.T) {
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %v, %v", rss, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a"), make([]byte, 1234), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := dirBytes(dir); err != nil || n != 1234 {
		t.Errorf("dirBytes = %v, %v; want 1234", n, err)
	}
}
