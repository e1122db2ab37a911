package lifecycle

import (
	"time"

	"cfsf/internal/obs"
)

// metrics holds the manager's instruments, looked up once (Registry
// lookups lock a map).
type metrics struct {
	mAppendLat   *obs.Histogram
	mApplyLat    *obs.Histogram
	mBatchSize   *obs.Histogram
	mSnapLat     *obs.Histogram
	mRetrainLat  *obs.Histogram
	mApplied     *obs.Counter
	mBatches     *obs.Counter
	mQueueFull   *obs.Counter
	mSnapshots   *obs.Counter
	mRetrains    *obs.Counter
	mRetrainErrs *obs.Counter
	mPending     *obs.Gauge
	mApplyLag    *obs.Gauge
	mRetraining  *obs.Gauge
}

func bindMetrics(r *obs.Registry) metrics {
	return metrics{
		mAppendLat:   r.Histogram("wal_append_latency_ms", nil),
		mApplyLat:    r.Histogram("lifecycle_apply_latency_ms", nil),
		mBatchSize:   r.Histogram("lifecycle_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}),
		mSnapLat:     r.Histogram("lifecycle_snapshot_duration_ms", nil),
		mRetrainLat:  r.Histogram("lifecycle_retrain_duration_ms", nil),
		mApplied:     r.Counter("lifecycle_applied_total"),
		mBatches:     r.Counter("lifecycle_batches_total"),
		mQueueFull:   r.Counter("lifecycle_queue_full_total"),
		mSnapshots:   r.Counter("lifecycle_snapshots_total"),
		mRetrains:    r.Counter("lifecycle_retrains_total"),
		mRetrainErrs: r.Counter("lifecycle_retrain_errors_total"),
		mPending:     r.Gauge("lifecycle_pending"),
		mApplyLag:    r.Gauge("lifecycle_apply_lag"),
		mRetraining:  r.Gauge("lifecycle_retraining"),
	}
}

// PublishGauges refreshes the registry's model-shape and queue gauges
// (pending depth, apply-lag, applied seq, WAL position) on demand, so a
// /metrics scrape reads current values rather than whatever the last
// submit or apply left behind.
func (m *Manager) PublishGauges() {
	st := m.rep.state.Load()
	mx := st.model.Matrix()
	m.reg.Gauge("lifecycle_model_users").Set(float64(mx.NumUsers()))
	m.reg.Gauge("lifecycle_model_items").Set(float64(mx.NumItems()))
	m.reg.Gauge("lifecycle_model_ratings").Set(float64(mx.NumRatings()))
	m.reg.Gauge("lifecycle_shards").Set(float64(st.model.Clusters().K))
	m.reg.Gauge("lifecycle_applied_seq").Set(float64(st.seq))
	m.reg.Gauge("wal_last_seq").Set(float64(m.w.LastSeq()))
	ws := m.w.Stats()
	m.reg.Gauge("wal_segments").Set(float64(ws.Segments))
	m.reg.Gauge("wal_available_from").Set(float64(m.w.AvailableFrom()))
	m.reg.Gauge("oldest_snapshot_seq").Set(float64(m.OldestSnapshotSeq()))
	m.mPending.Set(float64(m.Pending()))
	m.mApplyLag.Set(float64(m.ApplyLag()))
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
