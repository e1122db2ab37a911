package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/lifecycle"
	"cfsf/internal/obs"
	"cfsf/internal/wal"
)

// errRebootstrap says the stream cannot continue from the follower's state
// — the leader answered 410 Gone, or a streamed record addresses a state
// this replica does not hold — so it restarts from the newest snapshot.
var errRebootstrap = errors.New("replication: re-bootstrap required")

// Options configures a follower connection.
type Options struct {
	// LeaderURL is the leader's base URL, e.g. http://leader:8080.
	LeaderURL string
	// AdminToken, when non-empty, is sent as a bearer token on every
	// request (the leader's -admin-token gate).
	AdminToken string
	// Registry receives replication metrics; nil allocates a private one.
	Registry *obs.Registry
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests); nil uses a streaming-safe
	// default with no overall request timeout.
	Client *http.Client
	// ReconnectMin/Max bound the jittered exponential backoff between
	// stream attempts. Zero values use package defaults.
	ReconnectMin, ReconnectMax time.Duration
}

// Follower maintains a bit-identical replica of a leader's model:
// bootstrap from the newest snapshot, then stream and apply the WAL
// tail, re-bootstrapping whenever the leader prunes past our cursor.
type Follower struct {
	opts   Options
	app    *lifecycle.Follower //cfsf:immutable
	client *http.Client        //cfsf:immutable
	logf   func(format string, args ...any)

	leaderSeq    atomic.Uint64 // newest leader log-end seen (header or streamed record)
	bootSeq      atomic.Uint64 // watermark of the snapshot last bootstrapped from
	connected    atomic.Bool
	nBootstraps  atomic.Int64
	nRebootstrap atomic.Int64
	nReconnects  atomic.Int64

	gLagSeq    *obs.Gauge
	gLagWallMS *obs.Gauge
	gConnected *obs.Gauge

	cancel context.CancelFunc
	done   chan struct{}
}

// Start bootstraps a follower from the leader's newest snapshot (retrying
// until the leader is reachable or ctx ends) and launches the streaming
// loop. The returned follower serves reads immediately.
func Start(ctx context.Context, opts Options) (*Follower, error) {
	opts.LeaderURL = strings.TrimRight(opts.LeaderURL, "/")
	if opts.LeaderURL == "" {
		return nil, errors.New("replication: leader URL required")
	}
	if opts.ReconnectMin <= 0 {
		opts.ReconnectMin = defaultReconnectMin
	}
	if opts.ReconnectMax < opts.ReconnectMin {
		opts.ReconnectMax = defaultReconnectMax
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := opts.Client
	if client == nil {
		// No Timeout: it would kill the long-lived WAL stream. Dial and
		// header latency are bounded by the default transport instead.
		client = &http.Client{}
	}

	fctx, cancel := context.WithCancel(ctx)
	f := &Follower{
		opts:       opts,
		app:        lifecycle.NewFollower(reg, logf),
		client:     client,
		logf:       logf,
		gLagSeq:    reg.Gauge("replication_lag_seq"),
		gLagWallMS: reg.Gauge("replication_lag_wall_ms"),
		gConnected: reg.Gauge("replication_connected"),
		cancel:     cancel,
		done:       make(chan struct{}),
	}

	if err := f.bootstrapRetry(fctx); err != nil {
		cancel()
		close(f.done)
		return nil, err
	}
	go f.run(fctx)
	return f, nil
}

// run is the reconnect loop: stream until the connection drops, back off
// with jitter, re-bootstrap when the leader says our position is gone.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := f.opts.ReconnectMin
	for ctx.Err() == nil {
		err := f.streamOnce(ctx)
		f.connected.Store(false)
		f.gConnected.Set(0)
		switch {
		case ctx.Err() != nil:
			return
		case err == nil:
			// Clean stream end (leader closed politely); reconnect fast.
			backoff = f.opts.ReconnectMin
		case errors.Is(err, errRebootstrap):
			f.nRebootstrap.Add(1)
			f.logf("replication: %v at cursor %d; re-bootstrapping", err, f.app.Cursor())
			if berr := f.bootstrapRetry(ctx); berr != nil {
				return // only fails when ctx ends
			}
			backoff = f.opts.ReconnectMin
			continue
		default:
			f.nReconnects.Add(1)
			f.logf("replication: stream error: %v (retry in %v)", err, backoff)
		}
		// Full jitter keeps a restarted fleet from reconnecting in
		// lockstep.
		sleep := time.Duration(rng.Int63n(int64(backoff))) + f.opts.ReconnectMin/2
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return
		}
		if backoff *= 2; backoff > f.opts.ReconnectMax {
			backoff = f.opts.ReconnectMax
		}
	}
}

// streamOnce opens one WAL stream at the current cursor and applies
// records until it breaks. A 410 response, or a record the applier
// refuses, maps to errRebootstrap.
func (f *Follower) streamOnce(ctx context.Context) error {
	after := f.app.Cursor()
	resp, err := f.get(ctx, PathWAL+"?after="+strconv.FormatUint(after, 10))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return fmt.Errorf("%w: leader %s", errRebootstrap, readErrBody(resp))
	default:
		return fmt.Errorf("replication: wal stream: %s", readErrBody(resp))
	}
	if v, perr := strconv.ParseUint(resp.Header.Get(HeaderLastSeq), 10, 64); perr == nil {
		f.observeLeaderSeq(v)
	}
	f.connected.Store(true)
	f.gConnected.Set(1)
	f.logf("replication: streaming from %s after seq %d", f.opts.LeaderURL, after)

	buf := make([]byte, 0, streamChunkBytes)
	chunk := make([]byte, 64<<10)
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			for {
				rec, fn, derr := wal.DecodeFrame(buf)
				if derr != nil {
					if errors.Is(derr, wal.ErrShortFrame) {
						break // need more bytes
					}
					return fmt.Errorf("replication: corrupt frame in stream: %w", derr)
				}
				if ierr := f.app.Ingest(rec); ierr != nil {
					return fmt.Errorf("%w: %v", errRebootstrap, ierr)
				}
				f.observeLeaderSeq(rec.Seq)
				buf = buf[:copy(buf, buf[fn:])]
			}
			f.publishLag()
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return rerr
		}
	}
}

// bootstrapRetry runs bootstrap until it succeeds or ctx ends.
func (f *Follower) bootstrapRetry(ctx context.Context) error {
	backoff := f.opts.ReconnectMin
	for {
		err := f.bootstrap(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.logf("replication: bootstrap from %s failed: %v (retry in %v)", f.opts.LeaderURL, err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > f.opts.ReconnectMax {
			backoff = f.opts.ReconnectMax
		}
	}
}

// bootstrap fetches the leader's newest manifest and blobs, assembles
// the model and installs it as the follower's serving state.
func (f *Follower) bootstrap(ctx context.Context) error {
	resp, err := f.get(ctx, PathManifest)
	if err != nil {
		return err
	}
	manifestJSON, err := readOK(resp)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	mod, seq, err := lifecycle.AssembleRemotePoint(manifestJSON, func(name string) ([]byte, error) {
		bresp, berr := f.get(ctx, PathBlob+"?file="+url.QueryEscape(name))
		if berr != nil {
			return nil, berr
		}
		return readOK(bresp)
	})
	if err != nil {
		return err
	}
	f.app.Reset(mod, seq)
	f.bootSeq.Store(seq)
	f.observeLeaderSeq(seq)
	f.nBootstraps.Add(1)
	f.publishLag()
	f.logf("replication: bootstrapped from %s at seq %d (%d users, %d items)",
		f.opts.LeaderURL, seq, mod.Matrix().NumUsers(), mod.Matrix().NumItems())
	return nil
}

// get issues an authenticated GET against the leader.
func (f *Follower) get(ctx context.Context, pathAndQuery string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.LeaderURL+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	if f.opts.AdminToken != "" {
		req.Header.Set("Authorization", "Bearer "+f.opts.AdminToken)
	}
	return f.client.Do(req)
}

func (f *Follower) observeLeaderSeq(seq uint64) {
	for {
		cur := f.leaderSeq.Load()
		if seq <= cur || f.leaderSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// publishLag refreshes the lag gauges from current positions.
func (f *Follower) publishLag() {
	applied := f.app.AppliedSeq()
	leader := f.leaderSeq.Load()
	lag := uint64(0)
	if leader > applied {
		lag = leader - applied
	}
	f.gLagSeq.Set(float64(lag))
	f.gLagWallMS.Set(float64(f.app.OldestQueuedAge().Milliseconds()))
}

// Model returns the follower's current serving model.
func (f *Follower) Model() *core.Model { return f.app.Model() }

// AppliedSeq returns the contiguous applied watermark.
func (f *Follower) AppliedSeq() uint64 { return f.app.AppliedSeq() }

// LeaderURL returns the configured leader base URL (the write-redirect
// target).
func (f *Follower) LeaderURL() string { return f.opts.LeaderURL }

// Stats reports replication state for /stats.
func (f *Follower) Stats() map[string]any {
	f.publishLag()
	applied := f.app.AppliedSeq()
	leader := f.leaderSeq.Load()
	lag := uint64(0)
	if leader > applied {
		lag = leader - applied
	}
	return map[string]any{
		"role":          "follower",
		"leader":        f.opts.LeaderURL,
		"connected":     f.connected.Load(),
		"applied_seq":   applied,
		"received_seq":  f.app.Cursor(),
		"leader_seq":    leader,
		"lag_seq":       lag,
		"lag_wall_ms":   f.app.OldestQueuedAge().Milliseconds(),
		"bootstrap_seq": f.bootSeq.Load(),
		"bootstraps":    f.nBootstraps.Load(),
		"rebootstraps":  f.nRebootstrap.Load(),
		"reconnects":    f.nReconnects.Load(),
		"queued":        f.app.QueueLen(),
	}
}

// Close stops the streaming loop and waits for it to exit.
func (f *Follower) Close() {
	f.cancel()
	<-f.done
}

// readOK drains a response body, requiring status 200.
func readOK(resp *http.Response) ([]byte, error) {
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(readErrBody(resp))
	}
	return io.ReadAll(resp.Body)
}

// readErrBody summarises a non-200 response for error messages.
func readErrBody(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
}
