// Package frontend is the concurrent batching frontend of the PIM skip
// list — "the collector". A core.Map executes one batch at a time and is
// fastest when that batch is large (the paper's amortization argument:
// a batch of k ops shares upper-level traversals and pays near-optimal
// per-op IO, where k single-op batches would pay Ω(log n) each). The
// frontend turns the single-caller batch engine into a serving system:
// arbitrarily many client goroutines submit one operation at a time
// (Get/Upsert/Delete/Successor), a single collector goroutine coalesces
// them into time/size-bounded batches, runs the batches through the Map,
// and demultiplexes the replies back to the waiting callers through pooled
// futures. In steady state the enqueue/reply path allocates nothing.
//
// Two frontends share the machinery: Frontend drives one core.Map, and
// ClusterFrontend (clusterfrontend.go) drives an elastic cluster.Cluster —
// same coalescing semantics, per-shard sub-batches via the cluster's
// scatter/gather, plus a background rebalance control loop.
//
// # Coalescing semantics
//
// Each flush is one linearization point for every operation it contains
// (docs/FRONTEND.md is the normative statement):
//
//   - Writes happen before reads. All Upserts and Deletes of a flush are
//     applied to the Map first; every Get and Successor in the same flush
//     observes the post-write state, regardless of arrival order within
//     the flush.
//   - Last writer wins per key. Conflicting writes to the same key are
//     coalesced: only the final write (in arrival order) reaches the Map.
//     Every superseded write still receives its correct reply — the
//     per-key op sequence is replayed against the presence bit learned
//     from the coalesced batch, exactly as if the ops had executed one at
//     a time in arrival order.
//   - Replies are exact. A frontend reply is bit-identical to what a
//     direct one-op batch would have returned at the flush's
//     linearization point; the chaos soak verifies this under every
//     fault plan.
//
// # Scheduling
//
// The collector flushes as soon as the Map is idle and ops are pending
// (the low-latency fast path), and immediately once MaxBatch ops have
// accumulated. Config.MaxWait adds an optional dwell after the first op
// of a forming batch, trading latency for larger (cheaper per-op)
// batches. While a flush executes, newly arriving ops pile up into the
// next batch — under load, batching emerges without any timer.
package frontend

import (
	"cmp"
	"runtime"
	"time"

	"pimgo/internal/core"
)

// Config tunes the collector. The zero value selects the defaults.
type Config struct {
	// MaxBatch caps the number of client ops coalesced into one flush.
	// 0 selects 4096. Larger batches amortize better; smaller batches
	// bound tail latency.
	MaxBatch int
	// MaxWait is the dwell: after the first op of a forming batch arrives,
	// the collector waits up to MaxWait (or until MaxBatch ops) before
	// flushing. 0 — the default — disables the dwell: the collector
	// submits as soon as the Map is idle. Under concurrent load batches
	// form anyway, because ops arriving during a flush coalesce into the
	// next one.
	MaxWait time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	return c
}

// opKind discriminates the future's operation.
type opKind uint8

const (
	opGet opKind = iota
	opUpsert
	opDelete
	opSucc
)

// future is one in-flight client operation: the request fields, the reply
// fields, and a one-slot channel the collector signals when the reply is
// ready. Futures are pooled; the steady-state enqueue/reply path reuses
// them without allocating.
type future[K cmp.Ordered, V any] struct {
	ready chan struct{}

	kind opKind
	key  K
	val  V
	enq  time.Time

	// Reply fields. found carries Get/Successor presence, Upsert's
	// "inserted", and Delete's "was present".
	found bool
	rkey  K
	rval  V
	err   error
}

// Stats reports the collector's accumulated behaviour; read with
// Frontend.Stats.
type Stats struct {
	// Ops is the number of client operations completed (including ops
	// answered with an error).
	Ops int64
	// Flushes is the number of batches submitted to the Map.
	Flushes int64
	// Submitted is the number of operations that reached the Map after
	// write-coalescing; Ops - Submitted writes were answered by replay.
	Submitted int64
	// MaxFlush is the largest coalesced flush so far.
	MaxFlush int
	// QueueWait is the summed enqueue→flush wait over all ops;
	// MaxQueueWait the largest single wait.
	QueueWait    time.Duration
	MaxQueueWait time.Duration
	// FlushTime is the summed wall time spent executing flushes.
	FlushTime time.Duration
	// Errors is the number of ops answered with an error.
	Errors int64
}

// Frontend coalesces single-key operations from concurrent goroutines into
// batches on one core.Map. Create with New; all exported methods are safe
// for concurrent use. The Frontend must be the Map's only driver — direct
// batch calls on the same Map while the frontend is open race with the
// collector and fail with core.ErrConcurrentBatch.
type Frontend[K cmp.Ordered, V any] struct {
	intake[K, V]

	m   *core.Map[K, V]
	cfg Config

	stats Stats // guarded by intake.mu

	ws flushWS[K, V] // collector-owned scratch
}

// New starts a collector over m. The frontend takes over as the Map's sole
// driver; use Close to stop it (the Map itself is left open — closing it
// remains the caller's responsibility).
func New[K cmp.Ordered, V any](m *core.Map[K, V], cfg Config) *Frontend[K, V] {
	cfg = cfg.withDefaults()
	f := &Frontend[K, V]{m: m, cfg: cfg}
	f.intake.init(cfg.MaxBatch)
	f.ws.init()
	go f.run()
	return f
}

// Map returns the underlying Map (read-only introspection — Len, stats,
// trace sinks; do not run batches on it while the frontend is open).
func (f *Frontend[K, V]) Map() *core.Map[K, V] { return f.m }

// Stats returns a snapshot of the collector statistics. A flush's counts
// land after its replies are delivered, so a client that has just received
// a reply may not yet see its op counted; once Close has returned, the
// snapshot is exact.
func (f *Frontend[K, V]) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Close drains the collector — every already-enqueued op still receives
// its reply — and stops it. Ops submitted after Close fail with
// core.ErrClosed. Close is idempotent and safe to call concurrently with
// client ops: exactly one caller (the one that performed the shutdown)
// returns nil, every other call — second, concurrent, or racing in-flight
// ops — returns core.ErrClosed deterministically after the collector has
// fully drained. The underlying Map stays open.
func (f *Frontend[K, V]) Close() error {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	f.mu.Unlock()
	if already {
		<-f.done
		return core.ErrClosed
	}
	f.wake()
	<-f.done
	return nil
}

// run is the collector goroutine: wait for ops, optionally dwell to let the
// batch fill, swap the double buffer, flush in MaxBatch chunks.
func (f *Frontend[K, V]) run() {
	defer close(f.done)
	var tmr *time.Timer
	for {
		f.mu.Lock()
		for len(f.pending) == 0 {
			if f.closed {
				f.mu.Unlock()
				return
			}
			f.mu.Unlock()
			<-f.notify
			f.mu.Lock()
		}
		// Gather: yield to runnable client goroutines until the forming
		// batch stops growing or fills. A channel wakeup schedules the
		// collector immediately after the first enqueuer blocks, which
		// would flush batches of one op each; ceding the processor lets
		// every runnable client append first. When no clients are runnable
		// the yield returns immediately — the idle fast path stays fast.
		for {
			n := len(f.pending)
			if n >= f.cfg.MaxBatch || f.closed {
				break
			}
			f.mu.Unlock()
			runtime.Gosched()
			f.mu.Lock()
			if len(f.pending) == n {
				break
			}
		}
		if f.cfg.MaxWait > 0 {
			// Dwell: hold the forming batch open until it fills, the
			// deadline passes, or the frontend starts closing.
			deadline := f.pending[0].enq.Add(f.cfg.MaxWait)
			for len(f.pending) < f.cfg.MaxBatch && !f.closed {
				d := time.Until(deadline)
				if d <= 0 {
					break
				}
				f.mu.Unlock()
				if tmr == nil {
					tmr = time.NewTimer(d)
				} else {
					tmr.Reset(d)
				}
				expired := false
				select {
				case <-f.notify:
					if !tmr.Stop() {
						<-tmr.C
					}
				case <-tmr.C:
					expired = true
				}
				f.mu.Lock()
				if expired {
					break
				}
			}
		}
		batch := f.pending
		f.pending = f.spare
		f.spare = nil
		f.mu.Unlock()

		for off := 0; off < len(batch); off += f.cfg.MaxBatch {
			end := off + f.cfg.MaxBatch
			if end > len(batch) {
				end = len(batch)
			}
			f.flush(batch[off:end])
		}

		clear(batch) // drop future refs before parking the buffer
		f.mu.Lock()
		f.spare = batch[:0]
		f.mu.Unlock()
	}
}
