package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/lifecycle"
	"cfsf/internal/obs"
	"cfsf/internal/server"
	"cfsf/internal/wal"
)

// The traced run replays the first LadderN requests of a workload's
// stream one after the other up a ladder of rungs. Each rung is the
// system cut off at one layer and times only the calls into that layer's
// public functions:
//
//	core         Model.PredictDetailed/Recommend/PredictBatch, ShardedModel.Apply
//	wal          WAL.AppendRating(s)                      (writes only)
//	lifecycle    Manager.Model + the core read, Manager.Submit(Batch)
//	server       server.Handler().ServeHTTP into a recorder, no socket
//	http         the same handler behind an in-process loopback listener
//	cfsf-server  the spawned binary over loopback
//
// Every rung starts from its own copy of the model and waits, untimed,
// for each write to be applied before the next request, so request i
// meets the same state on every rung and a rung's time minus the time of
// the rung below on the same request is what that layer adds.

// span is one timed call into a layer. The spans of one request share
// its index.
type span struct {
	Name  string `json:"name"` // layer.op
	Req   int    `json:"req"`
	Start int64  `json:"start_ns"` // since the ladder began
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: that is the untraced replay trace_overhead_pct compares with.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) record(layer string, o op, req int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch)
	t.spans = append(t.spans, span{Name: layer + "." + o.String(), Req: req, Start: int64(s), End: int64(s + d)})
}

// rung is the system cut off at one layer.
type rung interface {
	// exec performs the request at this layer and returns when the timed
	// calls began, how long they took (0: the layer has no part in this
	// op) and, for a read, the values answered, rounded as the server
	// rounds.
	exec(rq *request) (start time.Time, d time.Duration, values []float64, err error)
	// settle returns once every accepted write is applied.
	settle() error
}

func toUpdates(cells []cell) []core.RatingUpdate {
	ups := make([]core.RatingUpdate, len(cells))
	for i, c := range cells {
		ups[i] = core.RatingUpdate{User: c.user, Item: c.item, Value: c.rating}
	}
	return ups
}

// readModel performs a read on mod, timing only the model call.
func readModel(mod func() *core.Model, rq *request) (time.Time, time.Duration, []float64) {
	var vs []float64
	switch rq.op {
	case opPredict:
		t := time.Now()
		p := mod().PredictDetailed(rq.user, rq.item)
		d := time.Since(t)
		return t, d, []float64{round3(p.Value)}
	case opRecommend:
		t := time.Now()
		recs := mod().Recommend(rq.user, recommendN)
		d := time.Since(t)
		for _, rec := range recs {
			vs = append(vs, float64(rec.Item), round3(rec.Score))
		}
		return t, d, vs
	default: // opBatch
		pairs := make([]core.Pair, len(rq.cells))
		for i, c := range rq.cells {
			pairs[i] = core.Pair{User: c.user, Item: c.item}
		}
		t := time.Now()
		out := mod().PredictBatch(pairs)
		d := time.Since(t)
		for _, v := range out {
			vs = append(vs, round3(v))
		}
		return t, d, vs
	}
}

type coreRung struct{ sm *core.ShardedModel }

func (r *coreRung) exec(rq *request) (time.Time, time.Duration, []float64, error) {
	if !rq.op.isWrite() {
		t, d, vs := readModel(r.sm.Model, rq)
		return t, d, vs, nil
	}
	ups := toUpdates(rq.ratings())
	t := time.Now()
	next, err := r.sm.Apply(ups)
	d := time.Since(t)
	if err != nil {
		return t, d, nil, err
	}
	r.sm = next
	return t, d, nil, nil
}

func (r *coreRung) settle() error { return nil }

// walRung journals the writes and ignores the reads. Shard routing
// comes from a model that never changes; the log stores it, nothing more.
type walRung struct {
	w     *wal.WAL
	route *core.ShardedModel
}

func (r *walRung) exec(rq *request) (time.Time, time.Duration, []float64, error) {
	if !rq.op.isWrite() {
		return time.Time{}, 0, nil, nil
	}
	ups := toUpdates(rq.ratings())
	shards := make([]int, len(ups))
	for i, u := range ups {
		shards[i] = r.route.ShardOf(u.User)
	}
	t := time.Now()
	var err error
	if rq.op == opRate {
		_, err = r.w.AppendRating(ups[0], shards[0])
	} else {
		_, err = r.w.AppendRatings(ups, shards)
	}
	return t, time.Since(t), nil, err
}

func (r *walRung) settle() error { return nil }

type lifecycleRung struct{ mgr *lifecycle.Manager }

func (r *lifecycleRung) exec(rq *request) (time.Time, time.Duration, []float64, error) {
	if !rq.op.isWrite() {
		t, d, vs := readModel(r.mgr.Model, rq)
		return t, d, vs, nil
	}
	ups := toUpdates(rq.ratings())
	t := time.Now()
	var err error
	if rq.op == opRate {
		_, _, err = r.mgr.Submit(ups[0])
	} else {
		_, _, err = r.mgr.SubmitBatch(ups)
	}
	return t, time.Since(t), nil, err
}

func (r *lifecycleRung) settle() error { return settleManager(r.mgr) }

func settleManager(mgr *lifecycle.Manager) error {
	deadline := time.Now().Add(drainTimeout)
	for mgr.Pending() > 0 || mgr.ApplyLag() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("lifecycle queue not drained after %v", drainTimeout)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// serverRung calls the routed, instrumented handler with a recorder in
// place of a connection. Building the request and reading the recorder
// are the caller's work and are not timed.
type serverRung struct {
	h     http.Handler
	mgr   *lifecycle.Manager
	bytes int // response bytes written so far
}

func (r *serverRung) exec(rq *request) (time.Time, time.Duration, []float64, error) {
	method, body := http.MethodGet, bytes.NewReader(nil)
	if rq.body != nil {
		method, body = http.MethodPost, bytes.NewReader(rq.body)
	}
	req := httptest.NewRequest(method, rq.target, body)
	rec := httptest.NewRecorder()
	t := time.Now()
	r.h.ServeHTTP(rec, req)
	d := time.Since(t)
	r.bytes += rec.Body.Len()
	ans, err := verify(rq, rec.Code, rec.Body.Bytes(), true)
	return t, d, ans.values, err
}

func (r *serverRung) settle() error { return settleManager(r.mgr) }

// httpRung sends over a socket on one keep-alive connection: to the
// in-process listener, or to the spawned binary.
type httpRung struct {
	c       *conn
	settled func() error
}

func (r *httpRung) exec(rq *request) (time.Time, time.Duration, []float64, error) {
	t := time.Now()
	status, body, err := r.c.do(rq)
	d := time.Since(t)
	if err != nil {
		return t, d, nil, err
	}
	ans, err := verify(rq, status, body, true)
	return t, d, ans.values, err
}

func (r *httpRung) settle() error { return r.settled() }

// rungTimes is what one replay measured: a duration per request (0 where
// the layer has no part) and the read answers.
type rungTimes struct {
	d      []time.Duration
	values [][]float64
	// Over the whole replay, per request: heap allocations, and CPU time
	// of this process in ms — parallel workers and the collector included,
	// which a wall-clock span of the calling goroutine does not show.
	allocs, cpuMS float64
}

// replay runs reqs through r in order. Answers are compared with truth,
// the answers of the core rung, when truth is given.
func (b *bench) replay(layer string, r rung, reqs []request, tr *tracer, truth [][]float64) (rungTimes, error) {
	rt := rungTimes{d: make([]time.Duration, len(reqs)), values: make([][]float64, len(reqs))}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin, cpu0 := time.Now(), selfCPU()
	for i := range reqs {
		rq := &reqs[i]
		start, d, vs, err := r.exec(rq)
		if d == 0 && err == nil {
			continue
		}
		b.tally.attempted++
		if err != nil {
			b.tally.fail(fmt.Errorf("%s rung, request %d: %w", layer, i, err))
			continue
		}
		tr.record(layer, rq.op, i, start, d)
		rt.d[i], rt.values[i] = d, vs
		if truth != nil && !rq.op.isWrite() && !sameValues(vs, truth[i]) {
			b.tally.fail(fmt.Errorf("%s rung, request %d (%s %s): answered %v, the core rung %v", layer, i, rq.op, rq.target, vs, truth[i]))
		}
		if rq.op.isWrite() {
			if err := r.settle(); err != nil {
				return rt, fmt.Errorf("%s rung, request %d: %w", layer, i, err)
			}
		}
	}
	rt.cpuMS = float64(selfCPU()-cpu0) / float64(time.Millisecond) / float64(len(reqs))
	b.logf("%s rung: %d requests in %.2fs", layer, len(reqs), time.Since(begin).Seconds())
	runtime.ReadMemStats(&m1)
	rt.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	return rt, nil
}

// byOp sorts a rung's durations into one recorder per op, in µs.
func (rt *rungTimes) byOp(reqs []request) [numOps]recorder {
	var rs [numOps]recorder
	for i, d := range rt.d {
		if d > 0 {
			rs[reqs[i].op].add(d, time.Microsecond)
		}
	}
	return rs
}

// selfTime is the median, per op, of what this rung took beyond the rung
// below on the same request, in µs.
func selfTime(upper, lower *rungTimes, reqs []request) [numOps]recorder {
	var rs [numOps]recorder
	for i := range reqs {
		if upper.d[i] > 0 && lower.d[i] > 0 {
			rs[reqs[i].op].add(upper.d[i]-lower.d[i], time.Microsecond)
		}
	}
	return rs
}

// openManager boots a lifecycle manager on a fresh directory with the
// server's default configuration, serving mod.
func openManager(dir string, mod *core.Model, reg *obs.Registry) (*lifecycle.Manager, error) {
	return lifecycle.Open(func() (*core.Model, error) { return mod, nil },
		lifecycle.Config{DataDir: dir, Registry: reg})
}

// ladderResult carries what runTraced needs besides the metrics.
type ladderResult struct {
	http   rungTimes   // the in-process http rung: the spawned rung's lower neighbour
	truth  [][]float64 // the core rung's answers
	tracer *tracer
}

// ladder runs the in-process rungs and puts their metrics into ms.
func (b *bench) ladder(reqs []request, ms *metricSet) (*ladderResult, error) {
	w := b.cfg.Workload
	var blob bytes.Buffer
	if err := b.ref.Save(&blob); err != nil {
		return nil, err
	}
	var warm *core.Model
	fresh := func() (*core.Model, error) {
		if warm != nil {
			return warm, nil
		}
		return core.Load(bytes.NewReader(blob.Bytes()))
	}
	if w.LadderWarm {
		// A read-only workload: one untimed pass fills the caches the
		// warmed-up server would have, and since nothing writes, every
		// rung can serve that one model.
		mod, err := fresh()
		if err != nil {
			return nil, err
		}
		if _, err := b.replay("warm", &coreRung{core.NewSharded(mod)}, reqs, nil, nil); err != nil {
			return nil, err
		}
		warm = mod
	}
	tr := &tracer{epoch: time.Now(), spans: make([]span, 0, 8*len(reqs))}
	put := ms.put
	ratings := 0
	for i := range reqs {
		ratings += len(reqs[i].ratings())
	}

	// core
	mod, err := fresh()
	if err != nil {
		return nil, err
	}
	rc0 := core.ReadRecCacheStats()
	coreT, err := b.replay("core", &coreRung{core.NewSharded(mod)}, reqs, tr, nil)
	if err != nil {
		return nil, err
	}
	rc1 := core.ReadRecCacheStats()
	co := coreT.byOp(reqs)
	put("core.train_ms", float64(b.refTrain)/float64(time.Millisecond), "ms", 1)
	put("core.predict_us_p50", co[opPredict].quantile(0.5), "us", co[opPredict].n())
	put("core.predict_us_p95", co[opPredict].quantile(0.95), "us", co[opPredict].n())
	put("core.recommend_us_p50", co[opRecommend].quantile(0.5), "us", co[opRecommend].n())
	put("core.recommend_us_p95", co[opRecommend].quantile(0.95), "us", co[opRecommend].n())
	put("core.predict_batch_us_p50", co[opBatch].quantile(0.5), "us", co[opBatch].n())
	var applyTotal time.Duration
	for i, d := range coreT.d {
		if reqs[i].op.isWrite() {
			applyTotal += d
		}
	}
	put("core.apply_us_per_rating", ratio(float64(applyTotal)/float64(time.Microsecond), float64(ratings)), "us", ratings)
	hits, misses := rc1.Hits-rc0.Hits, rc1.Misses-rc0.Misses
	carried, dropped := rc1.Carried-rc0.Carried, rc1.Invalidated-rc0.Invalidated
	put("core.reccache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses))
	put("core.reccache_carry_ratio", ratio(float64(carried), float64(carried+dropped)), "ratio", int(carried+dropped))
	put("core.allocs_per_req", coreT.allocs, "count", len(reqs))
	put("core.cpu_ms_per_req", coreT.cpuMS, "ms", len(reqs))

	// wal
	walDir := filepath.Join(b.work, "ladder-wal")
	wl, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	walBefore, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	walT, err := b.replay("wal", &walRung{w: wl, route: core.NewSharded(b.ref)}, reqs, tr, nil)
	if err != nil {
		return nil, err
	}
	if err := wl.Close(); err != nil {
		return nil, err
	}
	walAfter, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	wl, err = wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	records := 0
	if err := wl.Replay(0, func(wal.Record) error { records++; return nil }); err != nil {
		return nil, err
	}
	replayed := time.Since(t)
	if err := wl.Close(); err != nil {
		return nil, err
	}
	if records != ratings {
		b.tally.fail(fmt.Errorf("wal rung: replayed %d records, journaled %d ratings", records, ratings))
	}
	wo := walT.byOp(reqs)
	put("wal.append_us_p50", wo[opRate].quantile(0.5), "us", wo[opRate].n())
	put("wal.append_us_p95", wo[opRate].quantile(0.95), "us", wo[opRate].n())
	put("wal.bytes_per_rating", ratio(float64(walAfter-walBefore), float64(ratings)), "B", ratings)
	put("wal.replay_us_per_record", ratio(float64(replayed)/float64(time.Microsecond), float64(records)), "us", records)

	// lifecycle
	if mod, err = fresh(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	lcDir := filepath.Join(b.work, "ladder-lifecycle")
	mgr, err := openManager(lcDir, mod, reg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if mgr != nil { // replaced below by the recovered one; stop whichever is current
			mgr.Abort()
		}
	}()
	lcT, err := b.replay("lifecycle", &lifecycleRung{mgr}, reqs, tr, coreT.values)
	if err != nil {
		return nil, err
	}
	lo := lcT.byOp(reqs)
	put("lifecycle.submit_us_p50", lo[opRate].quantile(0.5), "us", lo[opRate].n())
	put("lifecycle.submit_us_p95", lo[opRate].quantile(0.95), "us", lo[opRate].n())
	put("lifecycle.submit_batch_us_p50", lo[opRate16].quantile(0.5), "us", lo[opRate16].n())
	subSelf := selfTime(&lcT, &walT, reqs)
	put("lifecycle.submit_self_us", subSelf[opRate].quantile(0.5), "us", subSelf[opRate].n())
	var readSelf recorder
	for o, r := range selfTime(&lcT, &coreT, reqs) {
		if !op(o).isWrite() {
			readSelf.merge(&r)
		}
	}
	put("lifecycle.read_self_us", readSelf.quantile(0.5), "us", readSelf.n())

	// Snapshot what the replay wrote, then submit the same writes again
	// back to back: how fast the queue drains and how large the
	// micro-batches get under backpressure. The burst lands after the
	// snapshot, so it is the log tail that recovery replays.
	snap, err := mgr.Snapshot()
	if err != nil {
		return nil, err
	}
	put("lifecycle.snapshot_ms", float64(snap.Duration)/float64(time.Millisecond), "ms", 1)
	put("lifecycle.snapshot_bytes", float64(snap.Bytes), "B", 1)
	applied0 := reg.Counter("lifecycle_applied_total").Value()
	batches0 := reg.Counter("lifecycle_batches_total").Value()
	t = time.Now()
	for i := range reqs {
		if ups := toUpdates(reqs[i].ratings()); len(ups) > 0 {
			if _, _, err := mgr.SubmitBatch(ups); err != nil {
				return nil, fmt.Errorf("lifecycle burst: %w", err)
			}
		}
	}
	if err := settleManager(mgr); err != nil {
		return nil, err
	}
	drain := time.Since(t)
	applied := reg.Counter("lifecycle_applied_total").Value() - applied0
	batches := reg.Counter("lifecycle_batches_total").Value() - batches0
	put("lifecycle.drain_ratings_per_s", ratio(float64(applied), drain.Seconds()), "1/s", int(applied))
	put("lifecycle.mean_batch_size", ratio(float64(applied), float64(batches)), "count", int(batches))
	mgr.Abort()
	t = time.Now()
	mgr, err = lifecycle.Open(nil, lifecycle.Config{DataDir: lcDir, Registry: obs.NewRegistry()})
	if err != nil {
		return nil, fmt.Errorf("lifecycle recover: %w", err)
	}
	put("lifecycle.recover_ms", float64(time.Since(t))/float64(time.Millisecond), "ms", 1)

	// server
	handlerOn := func(dir string) (http.Handler, *lifecycle.Manager, error) {
		mod, err := fresh()
		if err != nil {
			return nil, nil, err
		}
		reg := obs.NewRegistry()
		m, err := openManager(filepath.Join(b.work, dir), mod, reg)
		if err != nil {
			return nil, nil, err
		}
		return server.NewWithOptions(nil, nil, server.Options{Manager: m, Registry: reg}).Handler(), m, nil
	}
	h, srvMgr, err := handlerOn("ladder-server")
	if err != nil {
		return nil, err
	}
	defer srvMgr.Abort()
	sr := &serverRung{h: h, mgr: srvMgr}
	srvT, err := b.replay("server", sr, reqs, tr, coreT.values)
	if err != nil {
		return nil, err
	}
	putRung(ms, "server", &srvT, &lcT, reqs)
	put("server.allocs_per_req", srvT.allocs, "count", len(reqs))
	put("server.cpu_ms_per_req", srvT.cpuMS, "ms", len(reqs))
	put("server.resp_bytes_per_req", float64(sr.bytes)/float64(len(reqs)), "B", len(reqs))

	// http, traced and then untraced
	var httpT [2]rungTimes
	for k, t := range []*tracer{tr, nil} {
		h, m, err := handlerOn(fmt.Sprintf("ladder-http-%d", k))
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(h)
		c := newConn(ts.URL)
		httpT[k], err = b.replay("http", &httpRung{c: c, settled: func() error { return settleManager(m) }}, reqs, t, coreT.values)
		c.close()
		ts.Close()
		m.Abort()
		if err != nil {
			return nil, err
		}
	}
	putRung(ms, "http", &httpT[0], &srvT, reqs)
	// Paired by request, so the op mix cancels; what is left besides the
	// recording is drift between two replays a few seconds apart.
	var without, extra recorder
	for i := range reqs {
		without.add(httpT[1].d[i], time.Microsecond)
		extra.add(httpT[0].d[i]-httpT[1].d[i], time.Microsecond)
	}
	put("bench.trace_overhead_pct", 100*ratio(extra.quantile(0.5), without.quantile(0.5)), "%", len(reqs))

	return &ladderResult{http: httpT[0], truth: coreT.values, tracer: tr}, nil
}

// putRung reports a rung's per-op medians and its self time over the
// rung below.
func putRung(ms *metricSet, layer string, upper, lower *rungTimes, reqs []request) {
	all, self := upper.byOp(reqs), selfTime(upper, lower, reqs)
	for _, g := range opGroups {
		ms.put(layer+"."+g.name+"_us_p50", all[g.op].quantile(0.5), "us", all[g.op].n())
		ms.put(layer+"."+g.name+"_self_us", self[g.op].quantile(0.5), "us", self[g.op].n())
	}
}

// ratio is a/b, 0 when there is nothing to divide by: the metric of an
// op the workload does not have.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace stores the spans of the run under bench/out.
func (b *bench) writeTrace(tr *tracer, hash string) error {
	out, err := json.Marshal(map[string]any{
		"workload": b.cfg.Workload.Name, "seed": b.cfg.Seed, "config_sha256": hash, "spans": tr.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.outDir, "trace-"+b.cfg.Workload.Name+".json"), append(out, '\n'), 0o644)
}
