package trace

import (
	"fmt"
	"time"
)

// FlushStat describes one flush of the concurrent batching frontend
// (internal/frontend): how many single-op submissions were coalesced into
// the flush, how long they waited in the collector's queue, and how long
// the flush's Map batches took to execute.
//
// Unlike the machine events of this package, FlushStat carries wall-clock
// durations: the collector exists outside the simulated machine (its queue
// wait is real time spent by real goroutines, not a model quantity), so
// wall clock is the honest unit. The model cost of the flush's batches is
// still reported through the ordinary BatchStart/PhaseEnd/BatchEnd stream
// that the underlying Map emits while the flush runs.
type FlushStat struct {
	// Ops is the number of client operations coalesced into this flush.
	Ops int `json:"ops"`
	// Submitted is the number of operations actually sent to the Map after
	// write-coalescing (Ops - Submitted ops were answered by replaying the
	// per-key op sequence against the coalesced batch replies).
	Submitted int `json:"submitted"`
	// QueueWait is the summed enqueue→flush-start wait over the flush's ops.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// MaxQueueWait is the largest single-op wait in the flush.
	MaxQueueWait time.Duration `json:"max_queue_wait_ns"`
	// FlushTime is the wall time executing the flush's Map batches,
	// including reply demultiplexing.
	FlushTime time.Duration `json:"flush_time_ns"`
}

// FlushSink is optionally implemented by sinks that want the frontend's
// flush events in addition to the machine stream. A Frontend checks for it
// on its Map's installed sink, a ClusterFrontend on its own configured
// sink; Tee forwards to every member that implements it. Like every Sink method, Flush is invoked from a single
// goroutine (the collector) — but note that goroutine is NOT the one
// driving machine events when the sink is shared, so a sink implementing
// FlushSink for a frontend-owned Map sees all events from the collector
// goroutine, serially.
type FlushSink interface {
	Flush(FlushStat)
}

// Flush implements FlushSink for Tee by forwarding to every member sink
// that implements it.
func (t tee) Flush(fs FlushStat) {
	for _, s := range t {
		if f, ok := s.(FlushSink); ok {
			f.Flush(fs)
		}
	}
}

// CollectorTotals is Profile's aggregate over frontend flush events.
type CollectorTotals struct {
	Flushes      int64         `json:"flushes"`
	Ops          int64         `json:"ops"`
	Submitted    int64         `json:"submitted"`
	QueueWait    time.Duration `json:"queue_wait_ns"`
	MaxQueueWait time.Duration `json:"max_queue_wait_ns"`
	FlushTime    time.Duration `json:"flush_time_ns"`
}

// MeanBatch returns the mean coalesced flush size, 0 before any flush.
func (c CollectorTotals) MeanBatch() float64 {
	if c.Flushes == 0 {
		return 0
	}
	return float64(c.Ops) / float64(c.Flushes)
}

// String renders the collector aggregate as one line.
func (c CollectorTotals) String() string {
	return fmt.Sprintf("flushes=%d ops=%d submitted=%d meanBatch=%.1f queueWait=%v maxQueueWait=%v flushTime=%v",
		c.Flushes, c.Ops, c.Submitted, c.MeanBatch(), c.QueueWait, c.MaxQueueWait, c.FlushTime)
}

// Flush implements FlushSink: Profile attributes collector time alongside
// the per-phase machine attribution, read back with Collector.
func (p *Profile) Flush(fs FlushStat) {
	c := &p.collector
	c.Flushes++
	c.Ops += int64(fs.Ops)
	c.Submitted += int64(fs.Submitted)
	c.QueueWait += fs.QueueWait
	c.FlushTime += fs.FlushTime
	if fs.MaxQueueWait > c.MaxQueueWait {
		c.MaxQueueWait = fs.MaxQueueWait
	}
}

// Collector returns the aggregated frontend flush statistics (zero unless
// the profile is installed on a Map driven through internal/frontend).
func (p *Profile) Collector() CollectorTotals { return p.collector }
