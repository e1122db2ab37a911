// Package lifecycle owns the serving model end to end: it journals every
// incoming rating to a write-ahead log before acknowledging it, folds
// whatever is queued in one core.Model.Apply per micro-batch — which
// rebuilds only the user clusters (shards) the batch touches instead of
// the monolithic O(nnz) rebuild — rotates atomic snapshots that rewrite
// only the shard blobs a batch made stale (core.ChangedShards) so
// restarts are fast, and schedules the background retrain that
// internal/core/update.go's drift caveat asks for.
//
// One state machine turns WAL records into a served model (replica):
// ratings are pushed, a commit through seq N cuts its batch, applies it
// and publishes {model, applied seq}, a retrain record turns the state at
// its watermark into core.Train of that state's matrix. Boot replay feeds
// it the log, the live run loop pushes what it journals, commits through
// the newest rating it queued and folds the retrain records it journals,
// and a
// read replica (Follower) feeds it the leader's stream — so replay ≡ live
// apply ≡ follower, across a retrain too: all three are the same code.
//
// Files:
//
//	manager.go      Config, Open, Submit/SubmitBatch, the run loop and its
//	                drain policy, when a retrain is journaled, Close/Abort
//	replica.go      the push/commit/retrain/publish unit, applyWithFallback,
//	                and its two read views: Manager's accessors and Follower
//	commitqueue.go  the one rule regrouping a record stream into batches
//	boot.go         the recovery-point ladder, WAL-tail replay, per-shard
//	                blob patching, the WAL accessors replication serves from
//	snapshot.go     Snapshot and its dirt bookkeeping, retention, blob GC,
//	                WAL pruning, the manifest/blob accessors replication
//	                serves from
//	manifest.go     the manifest format, blob assembly (local and remote)
//	                and the read-back self-check
//	metrics.go      instruments and gauges
//
// Data-dir layout:
//
//	<dir>/wal/seg-<firstSeq>.wal         append-only rating journal (internal/wal)
//	<dir>/snapshots/manifest-<seq>.json  one recovery point: watermark + blob refs
//	<dir>/snapshots/shared-<seq>.blob    config + GIS + clustering at <seq>
//	<dir>/snapshots/shard-<id>-<seq>.blob one shard's matrix rows at <seq>
//
// Boot loads the newest loadable recovery point — an unreadable manifest
// is skipped in favour of an older one, and inside a manifest an
// unreadable shard blob is patched from an older manifest's blob plus
// the WAL before the whole point is given up on — or calls the bootstrap
// function when none loads and the WAL still reaches back to sequence 1,
// then replays the WAL tail past the point's sequence. One rule decides
// what the log can stand under: it serves a state at seq S iff its first
// segment starts at or below S+1, and after each verified snapshot the
// segments below the oldest retained manifest are deleted. A monolithic
// snap-<seq>.gob written before manifests existed no longer boots: with
// no loadable manifest beside it Open refuses, naming the file. Every
// published model folds a contiguous prefix of the log, and the
// batch-commit record journaled after each swap carries the last
// sequence the batch covered, so replay regroups ratings into exactly
// the micro-batches the previous process applied (commitQueue) and the
// recovered model is bit-for-bit identical. A fresh snapshot is then
// written so the next boot replays nothing — but only after every
// written blob passes a read-back self-check; a snapshot that cannot be
// read back bit-for-bit never prunes the WAL it claims to cover.
package lifecycle
