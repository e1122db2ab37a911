package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
	"cfsf/internal/replication"
	"cfsf/internal/synth"
)

// metric is one measured number; n is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// metricSet keeps metrics in the order they were put, for printing.
type metricSet struct {
	names  []string
	byName map[string]metric
}

func (s *metricSet) put(name string, v float64, unit string, n int) {
	if s.byName == nil {
		s.byName = map[string]metric{}
	}
	if _, dup := s.byName[name]; !dup {
		s.names = append(s.names, name)
	}
	s.byName[name] = metric{Value: v, Unit: unit, n: n}
}

// tally counts what was sent and what went wrong. One tally belongs to
// one goroutine; add them up after the goroutines have ended.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// sample is a parsed read answer kept for comparison with the reference
// model once the timed phases are over.
type sample struct {
	rq     *request
	values []float64
}

// worker is the per-goroutine state of a traffic phase.
type worker struct {
	c       *conn
	tally   tally
	lat     [numOps]recorder // ms
	lag     recorder         // ms the generator left late, open loop only
	acked   uint64           // highest acknowledged WAL sequence
	written []cell           // acknowledged ratings
	samples []sample
}

// exchange sends one request, checks the response and books the result.
// sampled responses are parsed in full and kept.
func (w *worker) exchange(rq *request, sampled bool) {
	w.tally.attempted++
	status, body, err := w.c.do(rq)
	if err != nil {
		w.tally.fail(err)
		return
	}
	ans, err := verify(rq, status, body, sampled)
	if err != nil {
		w.tally.fail(err)
		return
	}
	if rq.op.isWrite() {
		w.acked = max(w.acked, ans.seq)
		w.written = append(w.written, rq.ratings()...)
	} else if sampled {
		w.samples = append(w.samples, sample{rq, ans.values})
	}
}

// phase is the merged outcome of the workers of one traffic phase.
type phase struct {
	worker
	elapsed time.Duration // first send to last response
}

func mergeWorkers(ws []*worker) phase {
	var p phase
	for _, w := range ws {
		p.tally.add(w.tally)
		for o := range w.lat {
			p.lat[o].merge(&w.lat[o])
		}
		p.lag.merge(&w.lag)
		p.acked = max(p.acked, w.acked)
		p.written = append(p.written, w.written...)
		p.samples = append(p.samples, w.samples...)
		w.c.close()
	}
	return p
}

// bench is one run of one workload against a spawned cfsf-server.
type bench struct {
	cfg    resolvedConfig
	j      *janitor
	bin    string
	work   string // scratch for this run, removed by the janitor
	outDir string // bench/out: results and traces
	srvLog io.Writer
	logf   func(format string, args ...any)

	ref      *core.Model   // trained in-process from the file the server got
	refTrain time.Duration // how long that core.Train took
	stream   []request
	srv      *serverProc
	ctl      *conn

	tally   tally
	acked   uint64
	written []cell
	samples []sample
}

func (b *bench) absorb(p *phase) {
	b.tally.add(p.tally)
	b.acked = max(b.acked, p.acked)
	b.written = append(b.written, p.written...)
	b.samples = append(b.samples, p.samples...)
}

// check books a control-plane or end-of-run check.
func (b *bench) check(err error) {
	b.tally.attempted++
	if err != nil {
		b.tally.fail(err)
	}
}

// setup boots a fresh server cfg.SetupTrials times — dataset generation,
// u.data write, spawn, first 200 on the readiness probe — keeps the last
// one, and returns each trial's duration in seconds. It then trains the
// reference model from the same file and requires its fingerprint to
// equal the server's: ReadUData re-interns item ids by first appearance,
// so the raw synthetic matrix is not the matrix the server serves.
func (b *bench) setup() ([]float64, error) {
	udata := filepath.Join(b.work, "u.data")
	var trials []float64
	for k := 0; k < b.cfg.SetupTrials; k++ {
		if b.srv != nil {
			b.srv.kill()
			b.ctl.close()
		}
		start := time.Now()
		ds, err := synth.Generate(b.cfg.Dataset)
		if err != nil {
			return nil, fmt.Errorf("generate dataset: %w", err)
		}
		if err := ratings.WriteUDataFile(udata, ds.Matrix); err != nil {
			return nil, fmt.Errorf("write dataset: %w", err)
		}
		b.srv, err = spawnServer(b.j, b.bin, udata, filepath.Join(b.work, "data-"+strconv.Itoa(k)), b.srvLog)
		if err != nil {
			return nil, err
		}
		b.ctl = newConn(b.srv.url())
		if err := b.ctl.waitReady(); err != nil {
			return nil, err
		}
		trials = append(trials, time.Since(start).Seconds())
	}

	m, err := ratings.ReadUDataFile(udata)
	if err != nil {
		return nil, fmt.Errorf("read dataset back: %w", err)
	}
	if m.NumUsers() != b.cfg.Dataset.Users || m.NumItems() != b.cfg.Dataset.Items {
		// The stream was drawn over the configured ids; an item nobody
		// rated would be missing from the file and a request could be refused.
		return nil, fmt.Errorf("dataset file holds %d×%d, the stream expects %d×%d", m.NumUsers(), m.NumItems(), b.cfg.Dataset.Users, b.cfg.Dataset.Items)
	}
	start := time.Now()
	b.ref, err = core.Train(m, core.DefaultConfig())
	b.refTrain = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("train reference: %w", err)
	}
	want, err := replication.Fingerprint(b.ref)
	if err != nil {
		return nil, err
	}
	got, err := b.ctl.fingerprint()
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("server fingerprint %s differs from the reference %s trained on the same file", got, want)
	}
	return trials, nil
}

// warmup sends one /recommend and one /predict for each of the
// workload's first WarmUsers users, split over the closed-loop
// connections, and returns how long the pass took.
func (b *bench) warmup() time.Duration {
	users, items := min(b.cfg.Workload.WarmUsers, b.ref.Matrix().NumUsers()), b.ref.Matrix().NumItems()
	ws := make([]*worker, b.cfg.NProc)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range ws {
		ws[k] = &worker{c: newConn(b.srv.url())}
		wg.Add(1)
		go func(w *worker, first int) {
			defer wg.Done()
			for u := first; u < users; u += len(ws) {
				rec := request{op: opRecommend, user: u, target: "/recommend?user=" + strconv.Itoa(u) + "&n=" + strconv.Itoa(recommendN)}
				item := (u*31 + 7) % items
				pre := request{op: opPredict, user: u, item: item, target: "/predict?user=" + strconv.Itoa(u) + "&item=" + strconv.Itoa(item)}
				w.exchange(&rec, false)
				w.exchange(&pre, false)
			}
		}(ws[k], k)
	}
	wg.Wait()
	took := time.Since(start)
	p := mergeWorkers(ws)
	b.absorb(&p)
	return took
}

// openLoop sends reqs at rps requests per second, evenly spaced, on
// cfg.OpenConns connections. Request i is due at start + i/rps whatever
// happened to the requests before it, and its latency runs from that
// instant, so a stall is charged to every request it delays. One
// dispatcher thread sleeps to each due time and hands the request to
// whichever connection is free; how late a request left (lag) is taken
// when a connection picks it up. With midSnapshot set, a snapshot is
// asked for on a connection of its own from the moment the middle
// request is due.
func (b *bench) openLoop(reqs []request, rps int, midSnapshot bool) phase {
	interval := time.Second / time.Duration(rps)
	start := time.Now().Add(10 * time.Millisecond) // the connections are waiting before the first request is due
	dueAt := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	var snapErr error
	var loopOver atomic.Bool
	released := make(chan int, len(reqs)) // sized to the number of sends: the dispatcher never waits for a connection
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(released)
		// nanosleep holds its thread; the lock keeps the runtime from
		// parking other goroutines behind it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// Without this the kernel may round each wake-up of this thread
		// up by its default 50 µs timer slack.
		const prSetTimerslack = 29
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: on failure the slack stays
		for i := range reqs {
			sleepPrecisely(time.Until(dueAt(i)))
			released <- i
			if midSnapshot && i == len(reqs)/2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					snapErr = b.snapshotUnderLoad(&loopOver)
				}()
			}
		}
		loopOver.Store(true)
	}()
	ws := make([]*worker, b.cfg.OpenConns)
	for k := range ws {
		ws[k] = &worker{c: newConn(b.srv.url())}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := range released {
				due := dueAt(i)
				w.lag.add(time.Since(due), time.Millisecond)
				rq := &reqs[i]
				w.exchange(rq, i%checkEvery == 0)
				w.lat[rq.op].add(time.Since(due), time.Millisecond)
			}
		}(ws[k])
	}
	wg.Wait()
	p := mergeWorkers(ws)
	p.elapsed = time.Since(start)
	if midSnapshot {
		p.tally.attempted++
		if snapErr != nil {
			p.tally.fail(fmt.Errorf("mid-run snapshot: %w", snapErr))
		}
	}
	return p
}

// snapshotUnderLoad asks for a snapshot every 10 ms until the server
// takes one instead of skipping it — it skips while a per-shard batch
// has run ahead of the contiguous watermark — or the loop is over.
func (b *bench) snapshotUnderLoad(loopOver *atomic.Bool) error {
	c := newConn(b.srv.url())
	defer c.close()
	asked := time.Now()
	for tries := 1; ; tries++ {
		var out struct{ Status string }
		if err := c.call(http.MethodPost, "/admin/snapshot", &out); err != nil {
			return err
		}
		if out.Status != "skipped" {
			b.logf("mid-run snapshot taken after %d request(s), %.0f ms", tries, time.Since(asked).Seconds()*1000)
			return nil
		}
		if loopOver.Load() {
			b.logf("mid-run snapshot skipped %d time(s): the queue never stood still", tries)
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sleepPrecisely blocks the calling thread in nanosleep(2). time.Sleep
// wakes through the runtime's poller, whose timeout has millisecond
// granularity: its wake-ups came 0–1 ms late, which is more than a warm
// /predict takes.
func sleepPrecisely(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// closedLoop runs cfg.NProc clients until n requests are answered; each
// client sends its next request when its previous one has been answered.
// Requests come from reqs in order, wrapping around. The count is fixed,
// not the time, so the server ends the phase in the same state however
// fast the machine was.
func (b *bench) closedLoop(reqs []request, n int) phase {
	ws := make([]*worker, b.cfg.NProc)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := range ws {
		ws[k] = &worker{c: newConn(b.srv.url())}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				rq := &reqs[i%len(reqs)]
				t := time.Now()
				w.exchange(rq, i%checkEvery == 0)
				w.lat[rq.op].add(time.Since(t), time.Millisecond)
			}
		}(ws[k])
	}
	wg.Wait()
	p := mergeWorkers(ws)
	p.elapsed = time.Since(start)
	return p
}

// compareSamples checks the kept read answers against the reference
// model. It is only meaningful while the server still serves the model
// it booted with, i.e. for a mix without writes. A cold Recommend on
// the reference costs what it costs the server, so only the first
// maxRecommendChecks recommend samples are compared.
func (b *bench) compareSamples() {
	const maxRecommendChecks = 20
	recs := 0
	for _, s := range b.samples {
		if s.rq.op == opRecommend {
			if recs++; recs > maxRecommendChecks {
				continue
			}
		}
		b.tally.attempted++
		if want := expected(b.ref, s.rq); !sameValues(s.values, want) {
			b.tally.fail(fmt.Errorf("%s %s: got %v, reference says %v", s.rq.op, s.rq.target, s.values, want))
		}
	}
}

// newCells counts the distinct acknowledged cells the initial matrix did
// not hold: the server's rating count must have grown by exactly that.
func (b *bench) newCells() int {
	m := b.ref.Matrix()
	seen := map[[2]int]bool{}
	for _, c := range b.written {
		if _, rated := m.Rating(c.user, c.item); !rated {
			seen[[2]int{c.user, c.item}] = true
		}
	}
	return len(seen)
}

// recoveryCycles is how many times a run recovers the killed server;
// recovery_s is the median.
const recoveryCycles = 3

// snapshot asks the server for a snapshot now.
func (b *bench) snapshot() error {
	if err := b.ctl.call(http.MethodPost, "/admin/snapshot", nil); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// recoverAndCheck is the durability half of every run. Once the queue
// has drained it checks the applied watermark and the rating count, then
// fingerprint → SIGKILL → restart on the same data directory → ready →
// fingerprint, recoveryCycles times. The server is killed with the
// /rate tail in no snapshot, so recovery loads a manifest and replays
// that tail in the batches it was first applied in. It returns each
// recovery's restart → ready time in seconds and, after the snapshot that
// follows, the bytes under the data directory.
func (b *bench) recoverAndCheck() (recoveries []float64, diskBytes int64, err error) {
	st, err := b.ctl.waitDrained()
	if err != nil {
		return nil, 0, err
	}
	var lagging, miscounted error
	if st.Lifecycle.AppliedSeq < b.acked {
		lagging = fmt.Errorf("applied_seq %d is behind acknowledged seq %d", st.Lifecycle.AppliedSeq, b.acked)
	}
	if want := b.ref.Matrix().NumRatings() + b.newCells(); st.Ratings != want {
		miscounted = fmt.Errorf("server holds %d ratings, want %d (initial + distinct new cells)", st.Ratings, want)
	}
	b.check(lagging)
	b.check(miscounted)
	before, err := b.ctl.fingerprint()
	if err != nil {
		return nil, 0, err
	}

	// The directory the kill left behind is put back before every
	// further cycle, so each recovery does the first one's work.
	killedDir := b.srv.dataDir + ".killed"
	for k := 0; k < recoveryCycles; k++ {
		b.ctl.close()
		b.srv.kill()
		if k == 0 {
			err = copyDir(b.srv.dataDir, killedDir)
		} else if err = os.RemoveAll(b.srv.dataDir); err == nil {
			err = copyDir(killedDir, b.srv.dataDir)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("keep the killed server's directory: %w", err)
		}
		restarted := time.Now()
		if err := b.srv.start(); err != nil {
			return nil, 0, err
		}
		if err := b.ctl.waitReady(); err != nil {
			return nil, 0, err
		}
		recoveries = append(recoveries, time.Since(restarted).Seconds())
		after, err := b.ctl.fingerprint()
		if err != nil {
			return nil, 0, err
		}
		var diverged error
		if after != before {
			diverged = fmt.Errorf("fingerprint after recovery %d is %s, was %s before the kill", k, after, before)
		}
		b.check(diverged)
	}

	// A boot that replayed anything has already re-anchored with a
	// snapshot; this one is then skipped.
	if err := b.snapshot(); err != nil {
		return nil, 0, err
	}
	disk, err := dirBytes(b.srv.dataDir)
	if err != nil {
		return nil, 0, fmt.Errorf("measure %s: %w", b.srv.dataDir, err)
	}
	return recoveries, disk, nil
}

// runEndToEnd measures the end-to-end metrics: no spans are recorded
// and the server's counters are not read while traffic runs. The phases:
//
//	setup ×SetupTrials → warm-up → open loop (mid-run snapshot if asked) →
//	drain → closed loop → drain → snapshot → /rate tail → checks →
//	(SIGKILL → recovery → check) ×recoveryCycles → snapshot → bytes on disk
func (b *bench) runEndToEnd() (metricSet, error) {
	var ms metricSet
	trials, err := b.setup()
	if err != nil {
		return ms, err
	}
	ms.put("setup_s", median(trials), "s", len(trials))
	b.logf("setup %.3fs (median of %.3f); warming up", median(trials), trials)

	ms.put("warmup_s", b.warmup().Seconds(), "s", 1)

	w := b.cfg.Workload
	nOpen, nClosed := b.cfg.openCount(), b.cfg.closedCount()
	pid := b.srv.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return ms, err
	}
	open := b.openLoop(b.stream[:nOpen], w.RPS, w.MidSnapshot)
	if _, err := b.ctl.waitDrained(); err != nil {
		return ms, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return ms, err
	}
	b.absorb(&open)
	b.reportLag(&open)
	if w.Shares[opRate]+w.Shares[opRate16] == 0 {
		b.compareSamples()
	}

	// The closed loop's clock stops only when the queue is empty, so an
	// acknowledgement bought with a growing backlog does not count as
	// throughput.
	closedStart := time.Now()
	closed := b.closedLoop(b.stream[nOpen:], nClosed)
	if _, err := b.ctl.waitDrained(); err != nil {
		return ms, err
	}
	toDrained := time.Since(closedStart)
	cpu2, err := procCPU(pid)
	if err != nil {
		return ms, err
	}
	b.absorb(&closed)
	b.logf("closed loop: %d requests answered in %.2fs, queue empty after %.2fs", nClosed, closed.elapsed.Seconds(), toDrained.Seconds())

	if err := b.snapshot(); err != nil {
		return ms, err
	}
	m := b.ref.Matrix()
	tail := b.openLoop(newTail(b.cfg.Seed, m.NumUsers(), m.NumItems()), tailRPS, false)
	b.absorb(&tail)
	lat := &open.lat
	if w.Shares[opRate] == 0 {
		lat[opRate] = tail.lat[opRate]
	}

	recoveries, diskBytes, err := b.recoverAndCheck()
	if err != nil {
		return ms, err
	}
	b.logf("recovery %.3fs (median of %.3f)", median(recoveries), recoveries)

	for _, g := range opGroups {
		ms.put(g.name+"_p50_ms", lat[g.op].quantile(0.5), "ms", lat[g.op].n())
	}
	for _, g := range opGroups[:3] { // predict, recommend, rate: the ops with enough samples for a p95 on every workload
		if q, _ := deepestPercentile(lat[g.op].n()); q < 0.95 {
			b.logf("%s_p95_ms has fewer than %d samples beyond it (n=%d)", g.name, minBeyond, lat[g.op].n())
		}
		ms.put(g.name+"_p95_ms", lat[g.op].quantile(0.95), "ms", lat[g.op].n())
	}
	ms.put("rps", float64(nClosed)/toDrained.Seconds(), "1/s", nClosed)
	ms.put("cpu_ms_per_req", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(nOpen), "ms", nOpen)
	ms.put("recovery_s", median(recoveries), "s", len(recoveries))
	ms.put("disk_bytes_per_rating", float64(diskBytes)/float64(len(b.written)), "B", len(b.written))

	// Not in BENCHMARK.json, but part of the printed ledger: the same ops
	// and the same CPU reading in the closed loop, where no vCPU is idle,
	// and how late the generator ran.
	for o := op(0); o < numOps; o++ {
		if closed.lat[o].n() > 0 {
			ms.put(fmt.Sprintf("closed.%s_p50_ms", o), closed.lat[o].quantile(0.5), "ms", closed.lat[o].n())
		}
	}
	ms.put("closed.cpu_ms_per_req", float64(cpu2-cpu1)/float64(time.Millisecond)/float64(nClosed), "ms", nClosed)
	ms.put("sched_lag_p95_ms", open.lag.quantile(0.95), "ms", open.lag.n())
	return ms, nil
}

// reportLag says how late the open loop's requests left. Above
// maxSchedLagMS at p95 the offered load was not quite the configured one
// and the run's open-loop latencies read slow for a reason that is not
// the server's; the run says so and still counts (README.md: Departures).
func (b *bench) reportLag(open *phase) {
	p50, p95 := open.lag.quantile(0.5), open.lag.quantile(0.95)
	b.logf("open loop: %d requests in %.2fs, generator lag p50 %.3f p95 %.3f ms", open.lag.n(), open.elapsed.Seconds(), p50, p95)
	if p95 > maxSchedLagMS {
		b.logf("INVALID RUN: requests left %.3f ms late at p95 (limit %g ms)", p95, maxSchedLagMS)
	}
}
