// cfsf-server is a JSON-over-HTTP recommendation service built on the
// public API; the handlers live in internal/server. The expensive
// offline phase runs once at startup, the cheap online phase serves every
// request from the immutable model; /metrics exposes per-endpoint
// counts and latency percentiles so the online cost is measurable.
//
// Usage:
//
//	cfsf-server -addr :8080 -data u.data
//	cfsf-server -model model.cfsf           # load a saved model file instead
//	cfsf-server -data-dir ./cfsf-data       # durable mode: WAL + snapshots
//	cfsf-server -shards 30                  # user-cluster count C = shard count
//	cfsf-server -debug                      # also mount /debug/pprof
//
// A model file (`cfsf save`, or core.Model.SaveFile) is the one persisted
// form of a model: -model reads one, and every snapshot a data dir holds
// is one, model-<seq>.cfsf, which a follower fetches in one GET
// /admin/snapshot to bootstrap.
//
// With -data-dir the server becomes crash-safe and stateful: every /rate
// is journaled to a write-ahead log before it is acknowledged, applied
// to the model in micro-batches, and captured by rotating snapshots; a
// restart loads the newest snapshot and replays the WAL tail, so a
// SIGKILL loses nothing (see the README's "Durability & operations").
// The offline phase then only runs on the very first boot — later boots
// recover from the snapshot, and a boot that finds no loadable snapshot
// but a WAL that no longer starts at sequence 1, or only recovery points
// in a format this build no longer reads, exits with an error rather than
// retrain over lost ratings. A build reads the model file version it
// writes and the one before it; the error names the older build that
// migrates anything earlier (DESIGN §12).
// The write queue has one drain rule — whatever is queued folds in one
// apply, so -queue-cap also bounds a batch — and -batch-wait can delay
// each drain to let more ratings coalesce.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests get -shutdown-timeout to finish before the listener closes,
// and in durable mode the queue is drained and a final snapshot written.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfsf"
	"cfsf/internal/core"
	"cfsf/internal/lifecycle"
	"cfsf/internal/obs"
	"cfsf/internal/replication"
	"cfsf/internal/server"
	"cfsf/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfsf-server: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		data       = flag.String("data", "", "u.data path, or empty/synth for the built-in dataset")
		modelPath  = flag.String("model", "", "load a model saved with `cfsf save` instead of training")
		seed       = flag.Int64("seed", 1, "synthetic dataset seed")
		synthUsers = flag.Int("synth-users", 0, "synthetic dataset user count (0 = default 500; loadgen scenarios size this down for fast boots)")
		synthItems = flag.Int("synth-items", 0, "synthetic dataset item count (0 = default 1000)")
		shards     = flag.Int("shards", 0, "user-cluster count C = shard count for fresh training (0 = config default; ignored when loading a model or snapshot)")

		dataDir       = flag.String("data-dir", "", "durability root (WAL + snapshots); empty disables the lifecycle manager")
		fsync         = flag.String("fsync", "always", "WAL fsync policy: always, interval, or never")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "flush cadence under -fsync interval")
		segmentBytes  = flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation size")
		batchWait     = flag.Duration("batch-wait", 0, "extra coalescing delay before each micro-batch (0 = greedy)")
		queueCap      = flag.Int("queue-cap", 4096, "max journaled-but-unapplied ratings before /rate sheds load (503); also the largest micro-batch")
		snapshotEvery = flag.Duration("snapshot-every", 10*time.Minute, "background snapshot cadence (0 disables)")
		snapshotKeep  = flag.Int("snapshot-keep", 2, "how many snapshot files to retain")
		retrainAfter  = flag.Int("retrain-after", 0, "background retrain after this many applied ratings (0 disables)")

		follow     = flag.String("follow", "", "run as a read replica of this leader URL (e.g. http://leader:8080); ignores -data/-model/-data-dir")
		adminToken = flag.String("admin-token", "", "shared secret gating /admin/* (Authorization: Bearer <token>); also sent to the leader under -follow")
		maxQPS     = flag.Int("max-qps", 0, "cap serving endpoints at this many requests/second per process (429 beyond it; 0 = unlimited)")

		debug           = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
		growthMargin    = flag.Int("growth-margin", 1, "how far past current matrix bounds a /rate id may grow the model")
		maxBody         = flag.Int64("max-body", 1<<20, "request body size limit in bytes for /rate and /predict/batch")
		maxBatch        = flag.Int("max-batch", 1024, "maximum pairs per /predict/batch request")
		readTimeout     = flag.Duration("read-timeout", 10*time.Second, "http.Server ReadTimeout")
		writeTimeout    = flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout (raise when profiling via /debug/pprof/profile)")
		idleTimeout     = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
		maxHeaderBytes  = flag.Int("max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
		shutdownTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	// bootstrap produces the base model when no snapshot exists yet (and
	// is the whole story when -data-dir is off). titles are only known
	// for the synthetic dataset and only when bootstrap actually ran.
	var titles []string
	bootstrap := func() (*core.Model, error) {
		if *modelPath != "" {
			t := time.Now()
			model, err := core.LoadFile(*modelPath)
			if err != nil {
				return nil, err
			}
			log.Printf("loaded model in %v (%d users × %d items)",
				time.Since(t).Round(time.Millisecond),
				model.Matrix().NumUsers(), model.Matrix().NumItems())
			return model, nil
		}
		t := time.Now()
		var m *cfsf.Matrix
		source := "read from " + *data
		if *data == "" || *data == "synth" {
			source = "generated"
			cfg := cfsf.DefaultSynthConfig()
			cfg.Seed = *seed
			if *synthUsers > 0 {
				cfg.Users = *synthUsers
			}
			if *synthItems > 0 {
				cfg.Items = *synthItems
				// Keep the per-user rating demands satisfiable (and the
				// density MovieLens-like) when the catalogue shrinks.
				if cfg.MinPerUser > cfg.Items/5 {
					cfg.MinPerUser = max(1, cfg.Items/5)
				}
				if cfg.MeanPerUser > float64(cfg.Items)/4 {
					cfg.MeanPerUser = float64(cfg.Items) / 4
				}
				if cfg.MeanPerUser < float64(cfg.MinPerUser) {
					cfg.MeanPerUser = float64(cfg.MinPerUser)
				}
			}
			d := cfsf.GenerateSynthetic(cfg)
			m, titles = d.Matrix, d.ItemTitles
		} else {
			var err error
			m, err = cfsf.ReadUDataFile(*data)
			if err != nil {
				return nil, err
			}
		}
		loaded := time.Since(t)
		cfg := cfsf.DefaultConfig()
		if *shards > 0 {
			cfg.Clusters = *shards
		}
		t = time.Now()
		model, err := cfsf.Train(m, cfg)
		if err != nil {
			return nil, err
		}
		st, round := model.Stats(), func(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
		log.Printf("dataset %s in %v (%d users × %d items); offline phase complete in %v: GIS %v (%d entries), K-means %v, smoothing %v (%s)",
			source, round(loaded), m.NumUsers(), m.NumItems(), round(time.Since(t)),
			round(st.GISDuration), st.GISNeighbors, round(st.ClusterDuration), round(st.SmoothDuration),
			model.Clusters().Summary())
		return model, nil
	}

	// The listener opens before the model exists: the server starts in
	// "warming" state (alive, not ready) and Activate flips readiness
	// once the offline phase — or snapshot + WAL-tail recovery — is done.
	// Readiness probes (/healthz?ready=1) therefore measure true
	// recovery-to-servable time, which the loadgen kill-and-recover
	// scenario gates on.
	registry := obs.NewRegistry()
	srv := server.NewWarming(server.Options{
		GrowthMargin: *growthMargin,
		MaxBodyBytes: *maxBody,
		MaxBatch:     *maxBatch,
		Debug:        *debug,
		Registry:     registry,
		AdminToken:   *adminToken,
		MaxQPS:       *maxQPS,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (debug=%v durable=%v, warming)", *addr, *debug, *dataDir != "")

	type bootResult struct {
		model    *core.Model
		mgr      *lifecycle.Manager
		follower *replication.Follower
		err      error
	}
	bootc := make(chan bootResult, 1)
	go func() {
		if *follow != "" {
			// Follower boot: no local training, no local WAL — bootstrap
			// from the leader's newest snapshot and stream its tail. Start
			// retries until the leader is reachable (or we get a signal).
			f, err := replication.Start(ctx, replication.Options{
				LeaderURL:  *follow,
				AdminToken: *adminToken,
				Registry:   registry,
				Logf:       log.Printf,
			})
			if err != nil {
				bootc <- bootResult{err: fmt.Errorf("follow %s: %w", *follow, err)}
				return
			}
			bootc <- bootResult{follower: f}
			return
		}
		if *dataDir == "" {
			model, err := bootstrap()
			bootc <- bootResult{model: model, err: err}
			return
		}
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			bootc <- bootResult{err: err}
			return
		}
		t := time.Now()
		mgr, err := lifecycle.Open(bootstrap, lifecycle.Config{
			DataDir:       *dataDir,
			Fsync:         policy,
			FsyncInterval: *fsyncInterval,
			SegmentBytes:  *segmentBytes,
			BatchMaxWait:  *batchWait,
			QueueCapacity: *queueCap,
			SnapshotEvery: *snapshotEvery,
			SnapshotKeep:  *snapshotKeep,
			RetrainAfter:  *retrainAfter,
			Registry:      registry,
			Logf:          log.Printf,
		})
		if err != nil {
			bootc <- bootResult{err: fmt.Errorf("open data dir: %w", err)}
			return
		}
		bs := mgr.BootStats()
		log.Printf("durable boot in %v: snapshot=%q replayed=%d record(s) in %d batch(es) torn=%dB (fsync=%s)",
			time.Since(t).Round(time.Millisecond), bs.SnapshotLoaded, bs.ReplayedRecords,
			bs.ReplayedBatches, bs.TornBytes, policy)
		bootc <- bootResult{mgr: mgr}
	}()

	var mgr *lifecycle.Manager
	var fol *replication.Follower
	for {
		select {
		case err := <-errc:
			log.Fatalf("serve: %v", err)
		case b := <-bootc:
			if b.err != nil {
				log.Fatalf("build model: %v", b.err)
			}
			mgr, fol = b.mgr, b.follower
			if fol != nil {
				srv.ActivateFollower(fol, nil)
				log.Printf("ready (follower of %s, applied seq %d)", fol.LeaderURL(), fol.AppliedSeq())
			} else {
				srv.Activate(b.model, titles, b.mgr)
				log.Printf("ready (durable=%v)", mgr != nil)
			}
			bootc = nil // this arm fires once
		case <-ctx.Done():
			stop() // restore default signal handling: a second signal kills immediately
			log.Printf("signal received, draining for up to %v", *shutdownTimeout)
			if bootc != nil {
				// Boot is still running; let it finish so an opened
				// lifecycle manager (or follower stream) is closed cleanly
				// below.
				if b := <-bootc; b.err == nil {
					mgr, fol = b.mgr, b.follower
				}
			}
			srv.CloseReplication() // end follower WAL streams so Shutdown can drain
			sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
			defer cancel()
			if err := httpSrv.Shutdown(sctx); err != nil {
				log.Fatalf("shutdown: %v", err)
			}
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("serve: %v", err)
			}
			if fol != nil {
				fol.Close()
				log.Printf("replication stream closed")
			}
			if mgr != nil {
				if err := mgr.Close(); err != nil {
					log.Fatalf("close lifecycle manager: %v", err)
				}
				log.Printf("lifecycle manager closed (queue drained, final snapshot written)")
			}
			log.Printf("shutdown complete")
			return
		}
	}
}
