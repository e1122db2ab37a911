package lifecycle

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/obs"
	"cfsf/internal/wal"
)

// logLines collects a manager's log output for tests that assert on what
// a boot did.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

func retrainsLanded(m *Manager) int64 { return m.reg.Counter("lifecycle_retrains_total").Value() }

// TestRetrainIsReplayed kills a leader at every point of a retrain's life
// and checks the reboot against one uninterrupted run, bit for bit: five
// ratings applied one batch each, a retrain at that watermark, three more
// ratings folded as one batch. A retrain is a journaled record folded by
// the one replica every feeder shares, so where the process died, and
// which snapshot the reboot starts from, must not matter.
func TestRetrainIsReplayed(t *testing.T) {
	base := newBaseModel(t)
	const lead = 5
	tail := []core.RatingUpdate{testUpdate(5), testUpdate(6), testUpdate(7)}

	// open boots a fresh leader and applies the lead ratings.
	open := func(t *testing.T, cfg Config) (m *Manager, atSeq uint64) {
		t.Helper()
		cfg.Fsync = wal.SyncNever
		m, err := Open(bootWith(base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lead; i++ {
			seq, _, err := m.Submit(testUpdate(i))
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "lead rating applied", func() bool { return m.AppliedSeq() >= seq })
			atSeq = seq
		}
		return m, atSeq
	}
	retrain := func(t *testing.T, m *Manager) {
		t.Helper()
		n := retrainsLanded(m)
		if !m.TriggerRetrain() {
			t.Fatal("retrain trigger refused while idle")
		}
		waitUntil(t, "retrain landed", func() bool { return retrainsLanded(m) > n })
	}
	submitTail := func(t *testing.T, m *Manager) {
		t.Helper()
		seqs, _, err := m.SubmitBatch(tail)
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "tail applied", func() bool { return m.AppliedSeq() >= seqs[len(seqs)-1] })
	}

	ref, atSeq := open(t, Config{DataDir: t.TempDir()})
	retrain(t, ref)
	if ref.AppliedSeq() != atSeq {
		t.Fatalf("retrain moved the watermark from %d to %d", atSeq, ref.AppliedSeq())
	}
	afterRetrain := predictions(ref.Model())
	submitTail(t, ref)
	final := predictions(ref.Model())
	ref.Close()

	// reboot reopens a killed data dir and checks it against the reference,
	// feeding the tail first when the killed run had not got to it. It
	// returns the boot's log and stats.
	reboot := func(t *testing.T, dir string, tailDone bool) (*logLines, BootStats) {
		t.Helper()
		var log logLines
		b, err := Open(noBoot(t), Config{DataDir: dir, Fsync: wal.SyncNever, Logf: log.logf})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if !tailDone {
			samePredictions(t, "recovered at the retrain watermark", afterRetrain, predictions(b.Model()))
			submitTail(t, b)
		}
		samePredictions(t, "recovered", final, predictions(b.Model()))
		return &log, b.BootStats()
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"killed between journal and train with ratings queued behind", func(t *testing.T) {
			dir := t.TempDir()
			parked, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			m, atSeq := open(t, Config{DataDir: dir, Logf: func(format string, _ ...any) {
				if strings.Contains(format, "retrain started") {
					once.Do(func() {
						close(parked)
						<-release
					})
				}
			}})
			defer close(release)
			if !m.TriggerRetrain() {
				t.Fatal("retrain trigger refused while idle")
			}
			<-parked
			if _, _, err := m.SubmitBatch(tail); err != nil {
				t.Fatalf("a rating was refused while the retrain trained: %v", err)
			}
			// The run loop has taken the submit's kick and, once it takes
			// the next thing sent to it (a trigger it ignores mid-retrain),
			// is done with it.
			waitUntil(t, "run loop woken by the submit", func() bool { return len(m.kick) == 0 })
			m.retrainReq <- struct{}{}
			waitUntil(t, "run loop back at its select", func() bool { return len(m.retrainReq) == 0 })
			if !m.Retraining() || m.AppliedSeq() != atSeq || m.Pending() != len(tail) {
				t.Fatalf("while training: retraining=%v applied=%d pending=%d, want true, %d (unmoved), %d",
					m.Retraining(), m.AppliedSeq(), m.Pending(), atSeq, len(tail))
			}
			m.Abort()

			log, bs := reboot(t, dir, true)
			if bs.ReplayedRecords != lead+len(tail) || bs.ReplayedBatches != lead+1 {
				t.Errorf("boot = %+v, want %d records in %d batches", bs, lead+len(tail), lead+1)
			}
			if n := log.count("retrain complete at seq"); n != 1 {
				t.Errorf("boot folded %d retrains, want 1", n)
			}
		}},
		{"killed after the swap with no snapshot", func(t *testing.T) {
			dir := t.TempDir()
			m, _ := open(t, Config{DataDir: dir})
			retrain(t, m)
			m.Abort()
			if log, _ := reboot(t, dir, false); log.count("retrain complete at seq") != 1 {
				t.Error("boot did not fold the retrain")
			}
		}},
		{"snapshot at the retrain watermark", func(t *testing.T) {
			dir := t.TempDir()
			m, atSeq := open(t, Config{DataDir: dir})
			if info, err := m.Snapshot(); err != nil || info.Skipped {
				t.Fatalf("pre-retrain snapshot = %+v, %v", info, err)
			}
			retrain(t, m)
			// Same watermark, every part re-fit: never skipped as covered.
			info, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if info.Skipped || info.CoveredSeq != atSeq {
				t.Fatalf("post-retrain snapshot = %+v, want the file rewritten at seq %d", info, atSeq)
			}
			m.Abort()
			// The record is past the snapshot, so the boot folds it again —
			// onto the state that already holds it, changing nothing.
			log, bs := reboot(t, dir, false)
			if bs.SnapshotSeq != atSeq || bs.ReplayedRecords != 0 {
				t.Errorf("boot = %+v, want the post-retrain snapshot at seq %d and no rating replayed", bs, atSeq)
			}
			if n := log.count("retrain complete at seq"); n != 1 {
				t.Errorf("boot folded %d retrains, want the idempotent one", n)
			}
		}},
		{"snapshot past the retrain", func(t *testing.T) {
			dir := t.TempDir()
			m, _ := open(t, Config{DataDir: dir})
			retrain(t, m)
			submitTail(t, m)
			if info, err := m.Snapshot(); err != nil || info.Skipped {
				t.Fatalf("snapshot = %+v, %v", info, err)
			}
			m.Abort()
			if log, _ := reboot(t, dir, true); log.count("retrain started") != 0 {
				t.Error("boot retrained on top of a snapshot that already folds the retrain and more")
			}
		}},
		{"ratings journaled before the record, committed after it, snapshot in between", func(t *testing.T) {
			// The loop is parked inside a batch that trips RetrainAfter
			// while a later rating is journaled, so that rating is behind the
			// batch and ahead of the record: record seq > snapshot seq >
			// atSeq.
			dir := t.TempDir()
			logf, parked, release := parkOnFallback()
			m, _ := open(t, Config{DataDir: dir, RetrainAfter: lead + 1, Logf: logf})
			trip, _, err := m.SubmitBatch([]core.RatingUpdate{{User: 3, Item: 1, Value: 4}, {User: 3, Item: 2, Value: math.NaN()}})
			if err != nil {
				t.Fatal(err)
			}
			<-parked
			behind, _, err := m.Submit(core.RatingUpdate{User: 3, Item: 5, Value: 2})
			if err != nil {
				t.Fatal(err)
			}
			close(release)
			seqs := []uint64{trip[1], behind}
			waitUntil(t, "retrain landed", func() bool { return retrainsLanded(m) == 1 })
			waitUntil(t, "rating applied", func() bool { return m.AppliedSeq() >= seqs[1] })
			info, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var record wal.Record
			if err := m.w.Replay(0, func(rec wal.Record) error {
				if rec.Type == wal.RecordRetrain {
					record = rec
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if record.Covered != seqs[0] || info.CoveredSeq != seqs[1] || record.Seq <= seqs[1] {
				t.Fatalf("staged record %d at watermark %d under snapshot %d, want record > snapshot %d > watermark %d",
					record.Seq, record.Covered, info.CoveredSeq, seqs[1], seqs[0])
			}
			want := predictions(m.Model())
			m.Abort()

			var log logLines
			b, err := Open(noBoot(t), Config{DataDir: dir, Logf: log.logf})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if bs := b.BootStats(); bs.SnapshotSeq != seqs[1] {
				t.Fatalf("boot = %+v, want the snapshot at seq %d", bs, seqs[1])
			}
			if log.count("retrain started") != 0 {
				t.Error("boot re-ran a retrain the snapshot was built on top of")
			}
			samePredictions(t, "recovered past the record", want, predictions(b.Model()))
		}},
		{"record ahead of the watermark is refused", func(t *testing.T) {
			dir := t.TempDir()
			m, atSeq := open(t, Config{DataDir: dir})
			m.Close()
			w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := w.AppendRetrain(atSeq + 3)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			_, err = Open(noBoot(t), Config{DataDir: dir})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("retrain record %d", seq)) {
				t.Fatalf("Open = %v, want a refusal naming retrain record %d", err, seq)
			}

			f := NewFollower(obs.NewRegistry(), func(string, ...any) {})
			f.Reset(base, 0)
			if err := f.Ingest(wal.Record{Type: wal.RecordRetrain, Seq: 4, Covered: 2}); err == nil {
				t.Error("follower folded a retrain taken at a watermark it has not reached")
			}
			if f.Model() != base {
				t.Error("the refused record changed the follower's model")
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
