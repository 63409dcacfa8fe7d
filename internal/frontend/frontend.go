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
// There is one collector (collector.go, flush.go), written over a small
// executor interface with four batch calls. Frontend runs it on one
// core.Map; ClusterFrontend (clusterfrontend.go) runs it on an elastic
// cluster.Cluster, whose scatter/gather splits each call into per-shard
// sub-batches, and adds a background rebalance control loop. The two
// differ only in the executor, in where flush events go, and in that loop.
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
	collector[K, V]

	m *core.Map[K, V]
}

// New starts a collector over m. The frontend takes over as the Map's sole
// driver; use Close to stop it (the Map itself is left open — closing it
// remains the caller's responsibility). Flush events go to the Map's
// current trace sink.
func New[K cmp.Ordered, V any](m *core.Map[K, V], cfg Config) *Frontend[K, V] {
	cfg = cfg.withDefaults()
	f := &Frontend[K, V]{m: m}
	f.init(&mapExec[K, V]{m: m}, cfg.MaxBatch, cfg.MaxWait, m.TraceSink)
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
	return f.stats.Stats
}

// Close drains the collector — every already-enqueued op still receives
// its reply — and stops it. Ops submitted after Close fail with
// core.ErrClosed. Close is idempotent and safe to call concurrently with
// client ops: exactly one caller (the one that performed the shutdown)
// returns nil, every other call — second, concurrent, or racing in-flight
// ops — returns core.ErrClosed deterministically after the collector has
// fully drained. The underlying Map stays open.
func (f *Frontend[K, V]) Close() error { return f.close() }

// mapExec is the Map executor. It reuses one result buffer per call, so
// steady-state flushes allocate nothing. A Map fails whole batches only,
// so its per-key errors are always nil.
type mapExec[K cmp.Ordered, V any] struct {
	m          *core.Map[K, V]
	ures, dres []bool
	gres       []core.GetResult[V]
	sres       []core.SearchResult[K, V]
}

func (x *mapExec[K, V]) upsert(keys []K, vals []V) ([]bool, []error, error) {
	res, _, err := x.m.TryUpsertInto(keys, vals, x.ures)
	if err == nil {
		x.ures = res
	}
	return res, nil, err
}

func (x *mapExec[K, V]) delete(keys []K) ([]bool, []error, error) {
	res, _, err := x.m.TryDeleteInto(keys, x.dres)
	if err == nil {
		x.dres = res
	}
	return res, nil, err
}

func (x *mapExec[K, V]) get(keys []K) ([]core.GetResult[V], []error, error) {
	res, _, err := x.m.TryGetInto(keys, x.gres)
	if err == nil {
		x.gres = res
	}
	return res, nil, err
}

func (x *mapExec[K, V]) successor(keys []K) ([]core.SearchResult[K, V], []error, error) {
	res, _, err := x.m.TrySuccessorInto(keys, x.sres)
	if err == nil {
		x.sres = res
	}
	return res, nil, err
}
