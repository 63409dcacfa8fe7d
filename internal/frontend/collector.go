package frontend

import (
	"cmp"
	"runtime"
	"time"

	"pimgo/internal/cluster"
	"pimgo/internal/core"
	"pimgo/internal/trace"
)

// executor runs the collector's coalesced sub-batches on the backing store.
// Each call returns the results positionally, the per-key errors (nil when
// no key failed on its own) and a whole-batch error, which means no key of
// the call was applied or answered.
type executor[K cmp.Ordered, V any] interface {
	upsert(keys []K, vals []V) ([]bool, []error, error)
	delete(keys []K) ([]bool, []error, error)
	get(keys []K) ([]core.GetResult[V], []error, error)
	successor(keys []K) ([]core.SearchResult[K, V], []error, error)
}

// collector is the one collector both frontends embed: the intake, the run
// loop that turns it into flushes on an executor, the flush statistics and
// the flush event stream. The frontends differ only in the executor, in the
// sink flush events go to, and in the ClusterFrontend's rebalance loop.
type collector[K cmp.Ordered, V any] struct {
	intake[K, V]

	ex       executor[K, V]
	maxBatch int
	maxWait  time.Duration
	sink     func() trace.Sink // where FlushStat events go, read per flush

	// stats is guarded by intake.mu. The control-loop counters stay zero
	// without a rebalance loop.
	stats ClusterStats

	// Rebalance hand-off, guarded by intake.mu: the sampler publishes the
	// newest unconsumed DeltaLoads window and the run loop hands it to
	// rebalance between flushes. Both stay nil without a rebalance loop.
	window    []cluster.ShardLoad
	windowSeq int64
	rebalance func(w []cluster.ShardLoad, seq int64)

	ws flushWS[K, V] // collector-owned scratch
}

func (c *collector[K, V]) init(ex executor[K, V], maxBatch int, maxWait time.Duration, sink func() trace.Sink) {
	c.intake.init(maxBatch)
	c.ws.init()
	c.ex, c.maxBatch, c.maxWait, c.sink = ex, maxBatch, maxWait, sink
}

// close drains the collector — every already-enqueued op still receives its
// reply — and waits for it to exit. Exactly one caller, the one that
// performed the shutdown, returns nil; every other call returns
// core.ErrClosed, also only after the collector has fully drained.
func (c *collector[K, V]) close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	c.wake()
	<-c.done
	if already {
		return core.ErrClosed
	}
	return nil
}

// run is the collector goroutine: wait for ops or a load window, gather and
// optionally dwell to let the batch fill, swap the double buffer, flush in
// MaxBatch chunks, then — with the store idle between flushes — hand the
// window, if any, to the rebalance loop.
func (c *collector[K, V]) run() {
	defer close(c.done)
	var tmr *time.Timer
	for {
		c.mu.Lock()
		for len(c.pending) == 0 { // drain even while closing
			if c.closed {
				c.mu.Unlock()
				return // drops an unconsumed window, by design
			}
			if c.window != nil {
				break
			}
			c.mu.Unlock()
			<-c.notify
			c.mu.Lock()
		}
		// Gather: yield to runnable client goroutines until the forming
		// batch stops growing or fills. A channel wakeup schedules the
		// collector immediately after the first enqueuer blocks, which
		// would flush batches of one op each; ceding the processor lets
		// every runnable client append first. When no clients are runnable
		// the yield returns immediately — the idle fast path stays fast.
		for {
			n := len(c.pending)
			if n >= c.maxBatch || c.closed {
				break
			}
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			if len(c.pending) == n {
				break
			}
		}
		if c.maxWait > 0 && len(c.pending) > 0 {
			// Dwell: hold the forming batch open until it fills, the
			// deadline passes, or the frontend starts closing.
			deadline := c.pending[0].enq.Add(c.maxWait)
			for len(c.pending) < c.maxBatch && !c.closed {
				d := time.Until(deadline)
				if d <= 0 {
					break
				}
				c.mu.Unlock()
				if tmr == nil {
					tmr = time.NewTimer(d)
				} else {
					tmr.Reset(d)
				}
				expired := false
				select {
				case <-c.notify:
					if !tmr.Stop() {
						<-tmr.C
					}
				case <-tmr.C:
					expired = true
				}
				c.mu.Lock()
				if expired {
					break
				}
			}
		}
		batch := c.pending
		c.pending = c.spare
		c.spare = nil
		w, seq := c.window, c.windowSeq
		c.window = nil
		closing := c.closed
		c.mu.Unlock()

		c.drain(batch)
		if w != nil && !closing {
			c.rebalance(w, seq)
		}
	}
}

// flushPending drains whatever ops queued since the last flush — one swap,
// not a loop, so sustained traffic cannot livelock a migration phase. It
// runs on the collector goroutine between that goroutine's own flushes, so
// reusing the flush workspace is safe.
func (c *collector[K, V]) flushPending() {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.pending
	c.pending = c.spare
	c.spare = nil
	c.mu.Unlock()
	c.drain(batch)
}

// drain flushes a swapped-out batch in MaxBatch chunks and parks its buffer
// as the spare half of the double buffer.
func (c *collector[K, V]) drain(batch []*future[K, V]) {
	for off := 0; off < len(batch); off += c.maxBatch {
		c.flush(batch[off:min(off+c.maxBatch, len(batch))])
	}
	clear(batch) // drop future refs before parking the buffer
	c.mu.Lock()
	c.spare = batch[:0]
	c.mu.Unlock()
}

// finish emits a FlushStat to the frontend's sink if it implements
// trace.FlushSink, then records the flush in the collector stats.
func (c *collector[K, V]) finish(start time.Time, ops, submitted, errs int, queueWait, maxQueueWait time.Duration) {
	flushTime := time.Since(start)
	if sink, ok := c.sink().(trace.FlushSink); ok {
		sink.Flush(trace.FlushStat{
			Ops:          ops,
			Submitted:    submitted,
			QueueWait:    queueWait,
			MaxQueueWait: maxQueueWait,
			FlushTime:    flushTime,
		})
	}
	c.mu.Lock()
	st := &c.stats
	st.Ops += int64(ops)
	st.Flushes++
	st.Submitted += int64(submitted)
	if ops > st.MaxFlush {
		st.MaxFlush = ops
	}
	st.QueueWait += queueWait
	if maxQueueWait > st.MaxQueueWait {
		st.MaxQueueWait = maxQueueWait
	}
	st.FlushTime += flushTime
	st.Errors += int64(errs)
	c.mu.Unlock()
}
