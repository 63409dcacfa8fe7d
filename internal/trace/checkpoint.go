package trace

import "fmt"

// CheckpointStat describes one host-side fold of a cluster shard's journal
// (internal/cluster): base ⊕ journal, installed as the shard's new base by
// a checkpoint, or bulk-loaded into a fresh incarnation by a rebuild. A
// fold runs on the host alone, so it leaves no batch span and no round:
// this event is its only trace. It is emitted from the goroutine that
// holds the shard, between the shard's batches.
type CheckpointStat struct {
	// Shard is the shard whose journal was folded.
	Shard int `json:"shard"`
	// Rebuild reports a fold that fed a rebuild; the base and journal stay
	// as they were. Otherwise the fold was a checkpoint.
	Rebuild bool `json:"rebuild"`
	// BaseKeys is the base's size before the fold, JournalOps the journal's
	// op count (Σ keys per point entry, Σ ops per transform entry), and Keys
	// the size of the folded state.
	BaseKeys   int `json:"base_keys"`
	JournalOps int `json:"journal_ops"`
	Keys       int `json:"keys"`
	// CPUWork and CPUDepth are the fold's model cost, its only one.
	CPUWork  int64 `json:"cpu_work"`
	CPUDepth int64 `json:"cpu_depth"`
}

// CheckpointSink is optionally implemented by sinks that want per-shard
// checkpoint events in addition to the machine stream. Tee forwards to
// every member that implements it; Shard forwards to its inner sink
// unchanged (the event already carries its shard id).
type CheckpointSink interface {
	Checkpoint(CheckpointStat)
}

// Checkpoint implements CheckpointSink for Tee by forwarding to every
// member sink that implements it.
func (t tee) Checkpoint(cs CheckpointStat) {
	for _, s := range t {
		if k, ok := s.(CheckpointSink); ok {
			k.Checkpoint(cs)
		}
	}
}

// Checkpoint forwards checkpoint events to the wrapped sink when it accepts
// them.
func (s *shardSink) Checkpoint(cs CheckpointStat) {
	if k, ok := s.inner.(CheckpointSink); ok {
		k.Checkpoint(cs)
	}
}

// CheckpointTotals is Profile's aggregate over checkpoint events.
type CheckpointTotals struct {
	// Checkpoints and Rebuilds count the folds of each kind.
	Checkpoints int64 `json:"checkpoints"`
	Rebuilds    int64 `json:"rebuilds"`
	// JournalOps, Keys and CPUWork sum the per-event fields.
	JournalOps int64 `json:"journal_ops"`
	Keys       int64 `json:"keys"`
	CPUWork    int64 `json:"cpu_work"`
}

// String renders the checkpoint aggregate as one line.
func (ct CheckpointTotals) String() string {
	return fmt.Sprintf("checkpoints=%d rebuilds=%d journalOps=%d keys=%d cpuWork=%d",
		ct.Checkpoints, ct.Rebuilds, ct.JournalOps, ct.Keys, ct.CPUWork)
}

// Checkpoint implements CheckpointSink: Profile accumulates journal folds
// alongside the per-phase machine attribution, read back with Checkpoints.
func (p *Profile) Checkpoint(cs CheckpointStat) {
	ct := &p.checkpoint
	if cs.Rebuild {
		ct.Rebuilds++
	} else {
		ct.Checkpoints++
	}
	ct.JournalOps += int64(cs.JournalOps)
	ct.Keys += int64(cs.Keys)
	ct.CPUWork += cs.CPUWork
}

// Checkpoints returns the aggregated checkpoint statistics (zero unless the
// profile is installed on a cluster shard).
func (p *Profile) Checkpoints() CheckpointTotals { return p.checkpoint }
