package main

import (
	"net/http"
	"time"
)

// perLayerNames are the per-layer metrics BENCHMARK.json lists, in its
// order. A metric of an op the workload does not have reads 0.
var perLayerNames = []string{
	"core.train_ms", "core.predict_us_p50", "core.predict_us_p95", "core.recommend_us_p50", "core.recommend_us_p95",
	"core.predict_batch_us_p50", "core.apply_us_per_rating", "core.reccache_hit_ratio", "core.reccache_carry_ratio", "core.allocs_per_req", "core.cpu_ms_per_req",
	"wal.append_us_p50", "wal.append_us_p95", "wal.bytes_per_rating", "wal.replay_us_per_record",
	"lifecycle.submit_us_p50", "lifecycle.submit_us_p95", "lifecycle.submit_batch_us_p50", "lifecycle.submit_self_us", "lifecycle.read_self_us",
	"lifecycle.snapshot_ms", "lifecycle.snapshot_bytes", "lifecycle.drain_ratings_per_s", "lifecycle.mean_batch_size", "lifecycle.recover_ms",
	"server.predict_us_p50", "server.predict_self_us", "server.recommend_us_p50", "server.recommend_self_us",
	"server.rate_us_p50", "server.rate_self_us", "server.batch_us_p50", "server.batch_self_us",
	"server.allocs_per_req", "server.cpu_ms_per_req", "server.resp_bytes_per_req",
	"http.predict_us_p50", "http.predict_self_us", "http.recommend_us_p50", "http.recommend_self_us",
	"http.rate_us_p50", "http.rate_self_us", "http.batch_us_p50", "http.batch_self_us",
	"cfsf-server.predict_us_p50", "cfsf-server.predict_self_us", "cfsf-server.recommend_us_p50", "cfsf-server.recommend_self_us",
	"cfsf-server.rate_us_p50", "cfsf-server.rate_self_us", "cfsf-server.batch_us_p50", "cfsf-server.batch_self_us",
	"cfsf-server.handler_mean_ms.predict", "cfsf-server.handler_mean_ms.recommend", "cfsf-server.handler_mean_ms.rate", "cfsf-server.handler_mean_ms.batch",
	"cfsf-server.reccache_hit_ratio", "cfsf-server.mean_batch_size", "cfsf-server.queue_full_total", "cfsf-server.rss_peak_mb", "cfsf-server.boot_train_ms",
	"bench.sched_lag_p95_ms", "bench.client_cpu_ms_per_req", "bench.trace_overhead_pct",
}

// runTraced measures the per-layer metrics: the in-process ladder, the
// same requests against the spawned binary as the ladder's top rung, and
// then the server's own counters read around an open loop at the
// workload's rate. Spans go to bench/out/trace-<workload>.json.
func (b *bench) runTraced() (metricSet, error) {
	var ms metricSet
	if _, err := b.setup(); err != nil {
		return ms, err
	}
	boot, err := b.ctl.stats() // before any write: afterwards train_ms describes the last refresh
	if err != nil {
		return ms, err
	}
	w := b.cfg.Workload
	reqs := b.stream[:min(w.LadderN, len(b.stream))]
	lr, err := b.ladder(reqs, &ms)
	if err != nil {
		return ms, err
	}
	b.logf("ladder done; replaying against the spawned server")

	c := newConn(b.srv.url())
	top := &httpRung{c: c, settled: func() error { _, err := b.ctl.waitDrained(); return err }}
	if w.LadderWarm {
		if _, err := b.replay("warm", top, reqs, nil, nil); err != nil {
			return ms, err
		}
	}
	procT, err := b.replay("cfsf-server", top, reqs, lr.tracer, lr.truth)
	c.close()
	if err != nil {
		return ms, err
	}
	putRung(&ms, "cfsf-server", &procT, &lr.http, reqs)
	if err := b.writeTrace(lr.tracer, b.cfg.hash()); err != nil {
		return ms, err
	}

	if w.LadderWarm {
		b.warmup()
	}
	var m0, m1 serverMetrics
	if err := b.ctl.call(http.MethodGet, "/metrics", &m0); err != nil {
		return ms, err
	}
	s0, err := b.ctl.stats()
	if err != nil {
		return ms, err
	}
	nOpen := b.cfg.openCount()
	cpu0 := selfCPU()
	open := b.openLoop(b.stream[:nOpen], w.RPS, w.MidSnapshot)
	cpu1 := selfCPU()
	s1, err := b.ctl.waitDrained()
	if err != nil {
		return ms, err
	}
	if err := b.ctl.call(http.MethodGet, "/metrics", &m1); err != nil {
		return ms, err
	}
	b.absorb(&open)
	b.reportLag(&open)

	for _, g := range opGroups {
		e0, e1 := m0.Endpoints[g.endpoint].Latency, m1.Endpoints[g.endpoint].Latency
		ms.put("cfsf-server.handler_mean_ms."+g.name, ratio(e1.Sum-e0.Sum, float64(e1.Count-e0.Count)), "ms", int(e1.Count-e0.Count))
	}
	counter := func(name string) float64 {
		return float64(m1.Registry.Counters[name] - m0.Registry.Counters[name])
	}
	hits, misses := float64(s1.RecCache.Hits-s0.RecCache.Hits), float64(s1.RecCache.Misses-s0.RecCache.Misses)
	ms.put("cfsf-server.reccache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	ms.put("cfsf-server.mean_batch_size", ratio(counter("lifecycle_applied_total"), counter("lifecycle_batches_total")), "count", int(counter("lifecycle_batches_total")))
	ms.put("cfsf-server.queue_full_total", counter("lifecycle_queue_full_total"), "count", nOpen)
	rss, err := procPeakRSS(b.srv.pid())
	if err != nil {
		return ms, err
	}
	ms.put("cfsf-server.rss_peak_mb", rss, "MiB", 1)
	ms.put("cfsf-server.boot_train_ms", boot.TrainMS.Total, "ms", 1)
	ms.put("bench.sched_lag_p95_ms", open.lag.quantile(0.95), "ms", open.lag.n())
	ms.put("bench.client_cpu_ms_per_req", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(nOpen), "ms", nOpen)
	return ms, nil
}
