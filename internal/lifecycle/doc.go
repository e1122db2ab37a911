// Package lifecycle owns the serving model end to end: it journals every
// incoming rating to a write-ahead log before acknowledging it, folds
// whatever is queued in one core.Model.Apply per micro-batch — which
// rebuilds only the user clusters the batch touches instead of the
// monolithic O(nnz) rebuild — writes atomic, self-checked snapshot files
// so restarts are fast, and schedules the background retrain that
// internal/core/update.go's drift caveat asks for.
//
// One state machine turns WAL records into a served model (replica):
// ratings are pushed, a commit through seq N cuts its batch, applies it
// and publishes {model, applied seq}, a retrain record turns the state at
// its watermark into core.Train of that state's matrix. Boot replay feeds
// it the log, the live run loop pushes what it journals, commits through
// the newest rating it queued and folds the retrain records it journals,
// and a read replica (Follower) feeds it the leader's stream — so replay
// ≡ live apply ≡ follower, across a retrain too: all three are the same
// code.
//
// Files:
//
//	manager.go      Config, Open, Submit/SubmitBatch, the run loop and its
//	                drain policy, when a retrain is journaled, Close/Abort
//	replica.go      the push/commit/retrain/publish unit, applyWithFallback,
//	                and its two read views: Manager's accessors and Follower
//	commitqueue.go  the one rule regrouping a record stream into batches
//	boot.go         the recovery-point ladder, WAL-tail replay, the WAL
//	                accessors replication serves from
//	snapshot.go     Snapshot, retention, WAL pruning, the snapshot file
//	                replication serves
//	selfcheck.go    the read-back self-check a snapshot passes before it
//	                is published
//	metrics.go      instruments and gauges
//
// Data-dir layout:
//
//	<dir>/wal/seg-<firstSeq>.wal          append-only rating journal (internal/wal)
//	<dir>/snapshots/model-<seq>.cfsf      one recovery point: a core model file
//	                                      folding every rating with sequence <= seq
//
// A snapshot file is what core.Model.SaveAt writes: one checksummed frame
// holding the config, the matrix, the GIS neighbour lists, the clustering
// and the watermark — the same format as a `-model` file, and what a
// follower bootstraps from. Its rename is the commit point, and before it
// the file is read back and held against the serving model bit for bit;
// one that does not reproduce it is never published and never prunes the
// WAL it claims to cover.
//
// Boot loads the newest loadable snapshot file — an unusable one is
// skipped in favour of the next older — or calls the bootstrap function
// when none loads and the WAL still reaches back to sequence 1, then
// replays the WAL tail past the point's sequence. One rule decides what
// the log can stand under: it serves a state at seq S iff its first
// segment starts at or below S+1, and after each verified snapshot the
// segments below the oldest retained file are deleted. Every published
// model folds a contiguous prefix of the log, and the batch-commit record
// journaled after each swap carries the last sequence the batch covered,
// so replay regroups ratings into exactly the micro-batches the previous
// process applied (commitQueue) and the recovered model is bit-for-bit
// identical. A fresh snapshot is then written so the next boot replays
// nothing.
//
// A snapshot file of the model file version before the one this build
// writes loads like its own, and the boot snapshot after a replay writes
// the current version. A recovery point older builds wrote in a format
// this build no longer reads — a model file of an older version, a
// manifest over per-shard blobs, a monolithic snap-<seq>.gob — is never
// loaded: with no loadable snapshot file beside it Open refuses, naming
// the file and the build that migrates it, and beside one it is ignored
// and left in place.
package lifecycle
