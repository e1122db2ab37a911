package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"cfsf/internal/core"
)

// conn is one keep-alive connection to a server, used by one goroutine.
// The open loop, the closed loop, the in-process http rung and the
// spawned-binary rung all send through do, so their timings include the
// same client work.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		hc: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// send issues one call and returns the status and the body; the body is
// valid until the next call on this conn.
func (c *conn) send(method, target string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+target, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read body of %s: %w", target, err)
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) do(rq *request) (int, []byte, error) {
	if rq.body == nil {
		return c.send(http.MethodGet, rq.target, nil)
	}
	return c.send(http.MethodPost, rq.target, rq.body)
}

// call is for the control plane (/stats, /metrics, /admin/*): it wants a
// 200 and decodes the body into out when out is non-nil.
func (c *conn) call(method, target string, out any) error {
	status, b, err := c.send(method, target, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, status, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, target, err)
	}
	return nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Users   int `json:"users"`
	Items   int `json:"items"`
	Ratings int `json:"ratings"`
	TrainMS struct {
		Total float64 `json:"total"`
	} `json:"train_ms"`
	RecCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"recommend_cache"`
	Lifecycle struct {
		Pending    int    `json:"pending"`
		ApplyLag   uint64 `json:"apply_lag"`
		AppliedSeq uint64 `json:"applied_seq"`
	} `json:"lifecycle"`
}

func (s *serverStats) drained() bool { return s.Lifecycle.Pending == 0 && s.Lifecycle.ApplyLag == 0 }

// serverMetrics is the part of GET /metrics the benchmark reads. The
// per-endpoint histogram's sum and count are exact; its quantiles are
// bucketed and not used.
type serverMetrics struct {
	Endpoints map[string]struct {
		Latency struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"latency_ms"`
	} `json:"endpoints"`
	Registry struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"registry"`
}

func (c *conn) stats() (serverStats, error) {
	var s serverStats
	return s, c.call(http.MethodGet, "/stats", &s)
}

func (c *conn) fingerprint() (string, error) {
	var out struct {
		Fingerprint string `json:"fingerprint"`
	}
	err := c.call(http.MethodGet, "/admin/fingerprint", &out)
	return out.Fingerprint, err
}

// waitReady polls the readiness probe until it answers 200.
func (c *conn) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		status, _, err := c.send(http.MethodGet, "/healthz?ready=1", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v (last status %d, err %v)", c.base, readyTimeout, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitDrained polls /stats until every journaled rating is applied.
func (c *conn) waitDrained() (serverStats, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		s, err := c.stats()
		if err != nil {
			return s, err
		}
		if s.drained() {
			// /stats loads the model before it reads the queue, so the
			// answer that first shows the queue empty may still count the
			// ratings of the model before the last apply. Nothing is in
			// flight any more: read once again.
			return c.stats()
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("queue not drained after %v: pending=%d apply_lag=%d", drainTimeout, s.Lifecycle.Pending, s.Lifecycle.ApplyLag)
		}
		time.Sleep(time.Millisecond)
	}
}

// round3 is the server's rounding of predictions and scores.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// answer is what a response said, in a form that can be compared with
// what a model computes: see expected.
type answer struct {
	seq    uint64    // highest sequence number a /rate acknowledged
	values []float64 // nil when the body was not parsed
}

// verify checks one response. The status is always checked and a /rate
// body is always parsed for its sequence numbers. With full set, a
// read's body is parsed too and its values returned; comparing them
// with a model is left to the caller, outside any timed window.
func verify(rq *request, status int, body []byte, full bool) (answer, error) {
	want := http.StatusOK
	if rq.op.isWrite() {
		want = http.StatusAccepted
	}
	if status != want {
		return answer{}, fmt.Errorf("%s %s: status %d, want %d: %s", rq.op, rq.target, status, want, bytes.TrimSpace(body))
	}
	switch rq.op {
	case opRate:
		var out struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.Seq == 0 {
			return answer{}, fmt.Errorf("rate: no seq in %q (%v)", body, err)
		}
		return answer{seq: out.Seq}, nil
	case opRate16:
		var out struct {
			Seqs []uint64 `json:"seqs"`
		}
		if err := json.Unmarshal(body, &out); err != nil || len(out.Seqs) != len(rq.cells) {
			return answer{}, fmt.Errorf("rate16: want %d seqs in %q (%v)", len(rq.cells), body, err)
		}
		return answer{seq: out.Seqs[len(out.Seqs)-1]}, nil
	}
	if !full {
		return answer{}, nil
	}
	var out struct {
		User, Item      int
		Prediction      float64
		Recommendations []struct {
			Item  int
			Score float64
		}
		Predictions []struct {
			User, Item int
			Prediction float64
		}
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return answer{}, fmt.Errorf("%s %s: decode %q: %w", rq.op, rq.target, body, err)
	}
	var vs []float64
	switch rq.op {
	case opPredict:
		if out.User != rq.user || out.Item != rq.item {
			return answer{}, fmt.Errorf("predict %s: answered for (%d,%d)", rq.target, out.User, out.Item)
		}
		vs = []float64{out.Prediction}
	case opRecommend:
		if out.User != rq.user || len(out.Recommendations) == 0 || len(out.Recommendations) > recommendN {
			return answer{}, fmt.Errorf("recommend %s: user %d with %d items", rq.target, out.User, len(out.Recommendations))
		}
		for _, rec := range out.Recommendations {
			vs = append(vs, float64(rec.Item), rec.Score)
		}
	case opBatch:
		if len(out.Predictions) != len(rq.cells) {
			return answer{}, fmt.Errorf("batch: %d predictions for %d pairs", len(out.Predictions), len(rq.cells))
		}
		for k, p := range out.Predictions {
			if p.User != rq.cells[k].user || p.Item != rq.cells[k].item {
				return answer{}, fmt.Errorf("batch pair %d: answered for (%d,%d)", k, p.User, p.Item)
			}
			vs = append(vs, p.Prediction)
		}
	}
	return answer{values: vs}, nil
}

// expected computes the values a read should answer with from a model,
// rounded as the server rounds.
func expected(mod *core.Model, rq *request) []float64 {
	var vs []float64
	switch rq.op {
	case opPredict:
		vs = []float64{round3(mod.Predict(rq.user, rq.item))}
	case opRecommend:
		for _, rec := range mod.Recommend(rq.user, recommendN) {
			vs = append(vs, float64(rec.Item), round3(rec.Score))
		}
	case opBatch:
		for _, c := range rq.cells {
			vs = append(vs, round3(mod.Predict(c.user, c.item)))
		}
	}
	return vs
}

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
