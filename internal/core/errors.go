// Typed errors and the hardened entry points of the batch API. The legacy
// methods (Get, Upsert, ...) keep their two-value signatures and treat
// misuse as a programming error — they panic, but always with one of the
// typed error values below, never a bare string. The Try* variants return
// the error instead, which is the right surface when the machine can
// legitimately fail at runtime: a closed machine (ErrClosed) or a fault
// plan that defeats the retransmit budget (ErrFaultUnrecoverable).
//
// Internally every network round goes through Map.round, which converts a
// round error into a batchAbort panic; catchAbort recovers it at the Try*
// boundary. Panics that are not batchAborts are genuine invariant
// violations and propagate.
package core

import (
	"cmp"
	"errors"
	"fmt"

	"pimgo/internal/pim"
)

// Typed errors; callers match with errors.Is.
var (
	// ErrBadConfig reports an invalid Config.
	ErrBadConfig = errors.New("pimgo: invalid configuration")
	// ErrBadBatch reports malformed batch arguments (e.g. keys/vals
	// length mismatch).
	ErrBadBatch = errors.New("pimgo: invalid batch arguments")
	// ErrClosed reports use of a Map whose machine has been closed.
	ErrClosed = pim.ErrClosed
	// ErrInvalidModule reports a send outside [0, P) — an internal
	// routing bug surfaced as an error rather than a worker panic.
	ErrInvalidModule = pim.ErrInvalidModule
	// ErrFaultUnrecoverable reports that injected faults exceeded the
	// reliable transport's retransmit budget; the batch is abandoned and
	// the structure may be partially mutated (see docs/MODEL.md).
	ErrFaultUnrecoverable = pim.ErrFaultUnrecoverable
	// ErrConcurrentBatch reports a second batch submitted while another is
	// still running on the same Map. A Map executes one batch at a time;
	// concurrent callers must serialize externally — or, better, go through
	// the coalescing frontend (internal/frontend), which turns concurrent
	// single-op traffic into well-formed batches. The losing call fails
	// deterministically and side-effect-free; the running batch is
	// undisturbed.
	ErrConcurrentBatch = errors.New("pimgo: concurrent batch on a single Map")
)

// FaultPlan is re-exported so callers can install fault plans through
// Config without importing internal/pim.
type FaultPlan = pim.FaultPlan

// FaultConfig parameterizes NewSeededFaultPlan.
type FaultConfig = pim.FaultConfig

// FaultStats reports what an installed plan injected and what the
// transport paid to recover.
type FaultStats = pim.FaultStats

// NewSeededFaultPlan builds the deterministic built-in fault plan.
func NewSeededFaultPlan(cfg FaultConfig) FaultPlan { return pim.NewSeededPlan(cfg) }

// batchAbort wraps a round error while it unwinds the batch; it
// implements error so even a legacy (panicking) entry point panics with a
// value that errors.Is can match.
type batchAbort struct{ err error }

func (a batchAbort) Error() string { return a.err.Error() }
func (a batchAbort) Unwrap() error { return a.err }

// catchAbort converts a batchAbort panic back into the wrapped error at a
// Try* boundary. Any other panic propagates.
func catchAbort(errp *error) {
	if r := recover(); r != nil {
		if a, ok := r.(batchAbort); ok {
			*errp = a.err
			return
		}
		panic(r)
	}
}

// round is the single choke point between the batch code and the
// machine: every phase of every op drives its sends through here, so a
// round failure aborts the whole batch uniformly.
func (m *Map[K, V]) round(sends []pim.Send[*modState[K, V]]) ([]pim.Reply, []pim.Send[*modState[K, V]]) {
	replies, next, err := m.mach.TryRound(sends)
	if err != nil {
		// The batch is being abandoned mid-flight: release the single-flight
		// gate so the Map stays usable after a Try* caller recovers.
		m.inBatch.Store(false)
		panic(batchAbort{err})
	}
	return replies, next
}

// validate reports whether cfg describes a constructible machine.
func (c Config) validate() error {
	if c.P < 2 {
		return fmt.Errorf("%w: Config.P must be >= 2, got %d", ErrBadConfig, c.P)
	}
	if c.HLow < 0 || c.MaxLevel < 0 || c.PivotSpacing < 0 {
		return fmt.Errorf("%w: negative Config field (HLow=%d, MaxLevel=%d, PivotSpacing=%d)",
			ErrBadConfig, c.HLow, c.MaxLevel, c.PivotSpacing)
	}
	return nil
}

// TryNew is New with the error convention: a bad Config or nil hasher is
// returned as ErrBadConfig instead of panicking.
func TryNew[K cmp.Ordered, V any](cfg Config, hash func(K) uint64) (*Map[K, V], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if hash == nil {
		return nil, fmt.Errorf("%w: nil key hasher", ErrBadConfig)
	}
	return New[K, V](cfg, hash), nil
}

// Close releases the Map's machine (its persistent workers). Further
// batches fail with ErrClosed — deterministically, from the Try* variants
// as a returned error and from the legacy methods as a typed panic.
// Close is idempotent.
func (m *Map[K, V]) Close() { m.mach.Close() }

// Closed reports whether Close has been called.
func (m *Map[K, V]) Closed() bool { return m.mach.Closed() }

// FaultStats returns the machine's accumulated fault-injection and
// recovery counters (zero unless Config.Fault installed a plan).
func (m *Map[K, V]) FaultStats() FaultStats { return m.mach.FaultStats() }

// TryGet is Get with the error convention.
func (m *Map[K, V]) TryGet(keys []K) (res []GetResult[V], st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.Get(keys)
	return res, st, nil
}

// TryUpdate is Update with the error convention.
func (m *Map[K, V]) TryUpdate(keys []K, vals []V) (res []bool, st BatchStats, err error) {
	if len(keys) != len(vals) {
		return nil, BatchStats{}, fmt.Errorf("%w: Update keys/vals length mismatch (%d vs %d)",
			ErrBadBatch, len(keys), len(vals))
	}
	defer catchAbort(&err)
	res, st = m.Update(keys, vals)
	return res, st, nil
}

// TryUpsert is Upsert with the error convention.
func (m *Map[K, V]) TryUpsert(keys []K, vals []V) (res []bool, st BatchStats, err error) {
	if len(keys) != len(vals) {
		return nil, BatchStats{}, fmt.Errorf("%w: Upsert keys/vals length mismatch (%d vs %d)",
			ErrBadBatch, len(keys), len(vals))
	}
	defer catchAbort(&err)
	res, st = m.Upsert(keys, vals)
	return res, st, nil
}

// TryDelete is Delete with the error convention.
func (m *Map[K, V]) TryDelete(keys []K) (res []bool, st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.Delete(keys)
	return res, st, nil
}

// TrySuccessor is Successor with the error convention.
func (m *Map[K, V]) TrySuccessor(keys []K) (res []SearchResult[K, V], st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.Successor(keys)
	return res, st, nil
}

// TryGetInto is GetInto with the error convention: the steady-state
// allocation-free entry point for long-lived callers (the coalescing
// frontend) that must also survive runtime failures as errors.
func (m *Map[K, V]) TryGetInto(keys []K, dst []GetResult[V]) (res []GetResult[V], st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.GetInto(keys, dst)
	return res, st, nil
}

// TryUpsertInto is UpsertInto with the error convention.
func (m *Map[K, V]) TryUpsertInto(keys []K, vals []V, dst []bool) (res []bool, st BatchStats, err error) {
	if len(keys) != len(vals) {
		return nil, BatchStats{}, fmt.Errorf("%w: Upsert keys/vals length mismatch (%d vs %d)",
			ErrBadBatch, len(keys), len(vals))
	}
	defer catchAbort(&err)
	res, st = m.UpsertInto(keys, vals, dst)
	return res, st, nil
}

// TryDeleteInto is DeleteInto with the error convention.
func (m *Map[K, V]) TryDeleteInto(keys []K, dst []bool) (res []bool, st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.DeleteInto(keys, dst)
	return res, st, nil
}

// TrySuccessorInto is SuccessorInto with the error convention.
func (m *Map[K, V]) TrySuccessorInto(keys []K, dst []SearchResult[K, V]) (res []SearchResult[K, V], st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.SuccessorInto(keys, dst)
	return res, st, nil
}

// TryPredecessor is Predecessor with the error convention.
func (m *Map[K, V]) TryPredecessor(keys []K) (res []SearchResult[K, V], st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.Predecessor(keys)
	return res, st, nil
}

// TryRangeAuto is RangeAuto with the error convention — the entry point a
// shard supervisor uses to drive (and on recovery, re-drive) range batches
// on a machine that can legitimately die mid-batch.
func (m *Map[K, V]) TryRangeAuto(ops []RangeOp[K, V]) (res []RangeResult[K, V], st BatchStats, err error) {
	defer catchAbort(&err)
	res, st = m.RangeAuto(ops)
	return res, st, nil
}

// TrySnapshot is Snapshot with the error convention: journal compaction
// checkpoints a live faulted shard, so the export must surface machine
// death as an error instead of a panic.
func (m *Map[K, V]) TrySnapshot() (keys []K, vals []V, st BatchStats, err error) {
	defer catchAbort(&err)
	keys, vals, st = m.Snapshot()
	return keys, vals, st, nil
}

// TryBulkLoad is BulkLoad with the error convention — the rebuild path of
// a journaled recovery (bulk-load the last base snapshot, then replay the
// acked batches) runs under the replacement incarnation's fault plan and
// must report failures as errors.
func (m *Map[K, V]) TryBulkLoad(keys []K, vals []V) (st BatchStats, err error) {
	if len(keys) != len(vals) {
		return BatchStats{}, fmt.Errorf("%w: BulkLoad keys/vals length mismatch (%d vs %d)",
			ErrBadBatch, len(keys), len(vals))
	}
	defer catchAbort(&err)
	st = m.BulkLoad(keys, vals)
	return st, nil
}

// PartialStats assembles the model cost of an aborted batch from the
// machine's round counters (a Try* call that failed returns zero
// BatchStats — the batch never completed — but its rounds were real and a
// supervisor charging recovery honestly must account for them). Call it
// only after a failed Try* and before the next batch begins; CPU-side
// counters are not recoverable from an unwound batch and read zero.
func (m *Map[K, V]) PartialStats() BatchStats {
	met := m.mach.Metrics()
	return BatchStats{
		IOTime:       met.IOTime,
		PIMTime:      m.mach.PIMTime(),
		PIMRoundTime: met.PIMRoundTime,
		Rounds:       met.Rounds,
		SyncCost:     met.SyncCost(m.cfg.P),
		TotalMsgs:    met.TotalMsgs,
		TotalPIMWork: m.mach.TotalPIMWork(),
	}
}
