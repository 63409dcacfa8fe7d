package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

// batchKind selects the operation a shardBatch carries.
type batchKind int8

const (
	opGet batchKind = iota
	opUpsert
	opDelete
	opSucc
	opRange
)

// mutates reports whether the kind can change shard state. opRange counts:
// a batch may carry RangeTransform ops (the journal records only those).
func (k batchKind) mutates() bool { return k == opUpsert || k == opDelete || k == opRange }

// shardBatch is one shard's slice of a cluster batch. For point ops the
// keys/vals are the scatter workspace's permuted sub-slices; for broadcast
// ops (opSucc, opRange) they alias the caller's input, shared read-only by
// every shard.
type shardBatch[K cmp.Ordered, V any] struct {
	kind batchKind
	// seq is the cluster-wide commit sequence number of the batch (0 for
	// pure reads). Every shard's sub-batch of one cluster batch shares it;
	// the journal records it so migration cutover can merge per-shard
	// suffixes into the global commit order (migrate.go).
	seq  int64
	keys []K
	vals []V
	rops []core.RangeOp[K, V]
}

// shardReply is one shard's answer: exactly one result slice is populated
// (by kind), plus the shard's accumulated cost for the batch — including
// failed attempts, rebuilds and replays, all charged honestly to the batch
// that needed them. A checkpoint the batch happens to trigger is
// maintenance, not part of the batch's work: it is billed to the shard's
// Recovery and Total accounts only (commit).
type shardReply[K cmp.Ordered, V any] struct {
	bools  []bool
	gets   []core.GetResult[V]
	succs  []core.SearchResult[K, V]
	ranges []core.RangeResult[K, V]

	st        core.BatchStats
	recovered int
	err       error
}

// logKind tags one journal entry.
type logKind int8

const (
	logUpsert logKind = iota
	logDelete
	logTransform
)

// logEntry is one acked mutating batch, copied out of the (reused) scatter
// workspace into the shard's journal arena. Replaying base + entries in
// order reconstructs the shard's committed state exactly.
type logEntry[K cmp.Ordered, V any] struct {
	kind logKind
	// seq is the cluster-wide commit sequence of the acked batch. Within one
	// shard's journal seqs are strictly increasing; across shards the same
	// seq marks shares of the same cluster batch (a broadcast transform is
	// journaled by every mutating shard under one seq, and replayed exactly
	// once per seq at migration cutover).
	seq int64
	// keys/vals of a point entry are capacity-clipped spans of the shard's
	// logKeys/logVals arena (or, for entries a migration installed, slices
	// of their own). ops is a transform entry's own copy.
	keys []K
	vals []V
	ops  []core.RangeOp[K, V]
}

// shard supervises one core.Map incarnation plus the journal that outlives
// it. All fields are guarded by mu: run() and the lifecycle methods
// serialize per shard while distinct shards execute in parallel.
type shard[K cmp.Ordered, V any] struct {
	c  *Cluster[K, V]
	id int

	mu    sync.Mutex
	state ShardState
	m     *core.Map[K, V]
	plan  core.FaultPlan
	sink  trace.Sink

	// Journal: the last checkpointed base plus every acked mutating batch
	// since. logKeys/logVals are the flat arena the point entries'
	// keys/vals live in, truncated (capacity kept) at every checkpoint;
	// journalOps is the entries' total op count (Σ keys per point entry,
	// Σ ops per transform entry), kept incrementally. folder merges base
	// and entries on the host, into a buffer that swaps with base at a
	// checkpoint.
	base       pairs[K, V]
	entries    []logEntry[K, V]
	logKeys    []K
	logVals    []V
	journalOps int
	folder     folder[K, V]

	// committedLen is the logical key count as of the last acked batch —
	// the length a rebuild must land on.
	committedLen int

	batches     int64
	kills       int64
	recoveries  int64
	checkpoints int64
	total       core.BatchStats
	recovery    core.BatchStats
	faultsAcc   core.FaultStats // from closed incarnations
	downCause   error

	// migrating marks the shard as a participant of an in-flight migration:
	// auto-compaction is suppressed (the cutover needs the journal suffix
	// intact, and the copy phase reads the frozen base without mu, so no
	// checkpoint may swap it into the folder's buffer) and lifecycle
	// transitions are refused. Guarded by mu like the rest; the
	// cluster-level Cluster.migrating gate serializes migrations
	// themselves.
	migrating bool
	// migrations counts epoch cutovers this shard took part in; migration
	// accumulates the model cost of building its new incarnations (the
	// Recovery-style account migration rounds are honestly charged to).
	migrations int64
	migration  core.BatchStats
}

// saltShardSeed decorrelates per-shard core seeds from each other and from
// the router salt.
const saltShardSeed = 0x1f83_d9ab_fb41_bd6b

// shardConfig derives this shard's core.Config from the cluster template:
// per-shard P override, a distinct mixed seed, and the shard's current
// fault plan and (wrapped) trace sink.
func (s *shard[K, V]) shardConfig() core.Config {
	return s.configWith(s.plan, s.sink)
}

// configWith derives the shard's core.Config with an explicit fault plan
// and trace sink. Migrations build replacement incarnations with a nil sink
// (the live incarnation still emits on s.sink until cutover; the Sink
// contract is single-goroutine) and install s.sink at publish via
// SetTraceSink.
func (s *shard[K, V]) configWith(plan core.FaultPlan, sink trace.Sink) core.Config {
	cfg := s.c.cfg.Shard
	if len(s.c.cfg.ShardP) != 0 && s.id < len(s.c.cfg.ShardP) {
		cfg.P = s.c.cfg.ShardP[s.id]
	}
	cfg.Seed = rng.Mix64(s.c.cfg.Seed ^ (saltShardSeed + uint64(s.id)*0x9E37_79B9_7F4A_7C15))
	cfg.Fault = plan
	cfg.Trace = sink
	return cfg
}

// boot constructs the shard's first machine incarnation.
func (s *shard[K, V]) boot() error {
	m, err := core.TryNew[K, V](s.shardConfig(), s.c.hash)
	if err != nil {
		return err
	}
	s.m = m
	s.state = ShardRunning
	return nil
}

// closeMachine retires the current incarnation, banking its fault counters
// so ShardStats survives rebuilds. Safe to call with no machine live.
func (s *shard[K, V]) closeMachine() {
	if s.m == nil {
		return
	}
	addFaults(&s.faultsAcc, s.m.FaultStats())
	s.m.Close()
	s.m = nil
}

// addFaults accumulates b into a field-wise.
func addFaults(a *core.FaultStats, b core.FaultStats) {
	a.SendsDropped += b.SendsDropped
	a.SendsDuplicated += b.SendsDuplicated
	a.SendsDelayed += b.SendsDelayed
	a.LostToCrash += b.LostToCrash
	a.BundlesDropped += b.BundlesDropped
	a.BundlesDuplicated += b.BundlesDuplicated
	a.BundlesDelayed += b.BundlesDelayed
	a.StalledModuleRounds += b.StalledModuleRounds
	a.CrashedModuleRounds += b.CrashedModuleRounds
	a.Retransmits += b.Retransmits
	a.Replays += b.Replays
	a.DupDiscards += b.DupDiscards
	a.IdleRounds += b.IdleRounds
}

// goDown transitions the shard to ShardDown, retiring its machine.
func (s *shard[K, V]) goDown(cause error) {
	s.closeMachine()
	s.state = ShardDown
	s.downCause = cause
}

// downErr is the typed error a down shard answers every request with.
func (s *shard[K, V]) downErr() error {
	if s.downCause != nil {
		return fmt.Errorf("shard %d: %w (cause: %v)", s.id, ErrShardDown, s.downCause)
	}
	return fmt.Errorf("shard %d: %w (stopped)", s.id, ErrShardDown)
}

// run serves one sub-batch with at-most-MaxRecoveries transparent rebuilds.
// The exactly-once argument: a failed attempt's incarnation is discarded
// wholesale (its partial mutations with it); the journal holds only acked
// batches; the rebuilt incarnation is base + journal replay, i.e. exactly
// the committed state; the in-flight batch is then re-driven from scratch.
// Every attempt, rebuild and replay is charged into the reply's stats.
func (s *shard[K, V]) run(b *shardBatch[K, V]) (rep shardReply[K, V]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case ShardDown:
		rep.err = s.downErr()
		return rep
	case ShardRetired:
		// Unreachable by routing (a retired shard owns no slots and
		// broadcasts skip it); fail typed rather than panic if reached.
		rep.err = fmt.Errorf("shard %d: %w: batch routed to retired shard", s.id, ErrShardState)
		return rep
	case ShardDraining:
		if b.kind.mutates() {
			rep.err = fmt.Errorf("shard %d: %w", s.id, ErrShardDraining)
			return rep
		}
	}
	rebuilds := 0
	for {
		err := s.exec(b, &rep)
		if err == nil {
			s.commit(b, &rep)
			return rep
		}
		if errors.Is(err, pim.ErrMachineKilled) {
			s.kills++
		}
		// Recover or degrade. Each rebuild attempt consumes budget whether
		// the rebuild itself succeeds or dies (its inner plan still injects
		// faults); budget < 0 means unbounded.
		for {
			if s.c.cfg.DisableRecovery ||
				(s.c.cfg.MaxRecoveries >= 0 && rebuilds >= s.c.cfg.MaxRecoveries) {
				s.goDown(err)
				rep.err = s.downErr()
				return rep
			}
			rebuilds++
			rerr := s.rebuildLocked(&rep)
			if rerr == nil {
				break
			}
			if errors.Is(rerr, pim.ErrMachineKilled) {
				s.kills++
			}
			err = rerr
		}
	}
}

// exec drives b on the live incarnation, charging the attempt's cost —
// complete or partial — into rep.st.
func (s *shard[K, V]) exec(b *shardBatch[K, V], rep *shardReply[K, V]) error {
	var st core.BatchStats
	var err error
	switch b.kind {
	case opGet:
		rep.gets, st, err = s.m.TryGet(b.keys)
	case opUpsert:
		rep.bools, st, err = s.m.TryUpsert(b.keys, b.vals)
	case opDelete:
		rep.bools, st, err = s.m.TryDelete(b.keys)
	case opSucc:
		rep.succs, st, err = s.m.TrySuccessor(b.keys)
	case opRange:
		rep.ranges, st, err = s.m.TryRangeAuto(b.rops)
	}
	rep.st.Accumulate(st)
	if err != nil {
		// A failed Try* returns zero stats; the rounds it burned are still
		// on the machine's counters.
		rep.st.Accumulate(s.m.PartialStats())
	}
	return err
}

// commit acks b: journal the mutation, advance the committed length, and
// checkpoint the journal when it is due (checkpointDue). The checkpoint is
// maintenance: its cost lands in the shard's Recovery and Total accounts,
// never in rep.st, so the client batch that tripped it is billed only for
// its own work.
func (s *shard[K, V]) commit(b *shardBatch[K, V], rep *shardReply[K, V]) {
	s.journal(b)
	s.committedLen = s.m.Len()
	s.batches++
	s.total.Accumulate(rep.st)
	if s.checkpointDue() && !s.migrating {
		// A failed checkpoint (a merge that misses the committed length)
		// keeps the longer journal; the batch itself is already acked.
		// Suppressed mid-migration: the cutover replays the journal suffix
		// accumulated since the migration froze its base, so truncating it
		// here would lose acked batches from the new epoch, and swapping
		// the base would recycle the buffer the copy phase is reading.
		st, _ := s.compactLocked(&s.recovery)
		s.total.Accumulate(st)
	}
}

// checkpointDue applies the compaction trigger. At the default
// (CompactEvery 0) it is the size rule: checkpoint once the journal holds
// as many ops as the shard holds keys, so each journaled op pays for at
// most one base key merged and a rebuild folds no more journaled ops than
// the shard holds keys. A positive CompactEvery counts journaled batches
// instead; a negative one disables compaction.
func (s *shard[K, V]) checkpointDue() bool {
	switch ce := s.c.cfg.CompactEvery; {
	case ce > 0:
		return len(s.entries) >= ce
	case ce == 0:
		return len(s.entries) > 0 && s.journalOps >= s.committedLen
	}
	return false
}

// journal records b's mutation, copying keys/vals out of the reused scatter
// workspace into the journal arena. Range batches record only their
// RangeTransform ops — reads don't change state, and transforms apply in
// batch order among themselves.
func (s *shard[K, V]) journal(b *shardBatch[K, V]) {
	switch b.kind {
	case opUpsert:
		s.entries = append(s.entries, logEntry[K, V]{
			kind: logUpsert,
			seq:  b.seq,
			keys: appendSpan(&s.logKeys, b.keys),
			vals: appendSpan(&s.logVals, b.vals),
		})
		s.journalOps += len(b.keys)
	case opDelete:
		s.entries = append(s.entries, logEntry[K, V]{
			kind: logDelete,
			seq:  b.seq,
			keys: appendSpan(&s.logKeys, b.keys),
		})
		s.journalOps += len(b.keys)
	case opRange:
		var tf []core.RangeOp[K, V]
		for _, op := range b.rops {
			if op.Kind == core.RangeTransform {
				tf = append(tf, op)
			}
		}
		if len(tf) > 0 {
			s.entries = append(s.entries, logEntry[K, V]{kind: logTransform, seq: b.seq, ops: tf})
			s.journalOps += len(tf)
		}
	}
}

// appendSpan copies src onto the end of *arena and returns the copy as a
// capacity-clipped span, so a later append can never write through it. A
// span outlives arena growth (it keeps the old backing array); it is only
// invalidated by resetJournal, which drops every entry with it.
func appendSpan[T any](arena *[]T, src []T) []T {
	lo := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[lo:len(*arena):len(*arena)]
}

// resetJournal installs entries as the whole journal (nil or empty for a
// fresh checkpoint) and truncates the arena for reuse. entries must not
// reference the arena: every span in it is overwritten by later appends.
func (s *shard[K, V]) resetJournal(entries []logEntry[K, V]) {
	clear(s.entries)
	s.entries = entries
	s.logKeys = s.logKeys[:0]
	s.logVals = s.logVals[:0]
	s.journalOps = 0
	for i := range entries {
		s.journalOps += len(entries[i].keys) + len(entries[i].ops)
	}
}

// rebuildLocked replaces the dead incarnation: close it, strip a terminal
// kill plan to its inner plan (the kill consumed the incarnation it was
// aimed at), construct a fresh machine, bulk-load base ⊕ journal and verify
// the committed length. With a journal the state is folded on the host
// into the folder's buffer and not installed, so a rebuild mid-migration
// keeps the journal suffix the cutover replays and never writes the frozen
// base; without one the base is loaded as it is. All costs charge into
// rep.st and the shard's recovery account.
func (s *shard[K, V]) rebuildLocked(rep *shardReply[K, V]) error {
	s.closeMachine()
	if ip, ok := s.plan.(interface{ Inner() core.FaultPlan }); ok {
		s.plan = ip.Inner()
	}
	m, err := core.TryNew[K, V](s.shardConfig(), s.c.hash)
	if err != nil {
		return err
	}
	s.m = m
	charge := func(st core.BatchStats) {
		rep.st.Accumulate(st)
		s.recovery.Accumulate(st)
	}
	state := s.base
	if len(s.entries) > 0 {
		charge(s.foldLocked(true))
		state = s.folder.out
	}
	if len(state.keys) > 0 {
		st, err := m.TryBulkLoad(state.keys, state.vals)
		charge(st)
		if err != nil {
			charge(m.PartialStats())
			return err
		}
	}
	if m.Len() != s.committedLen {
		return fmt.Errorf("shard %d: rebuild loaded %d keys, committed state had %d",
			s.id, m.Len(), s.committedLen)
	}
	s.recoveries++
	rep.recovered++
	return nil
}

// compactLocked checkpoints the shard: base ⊕ journal, merged on the host,
// becomes the new base and the journal is truncated. The merge's buffer
// swaps with the old base, so both keep their capacity. If the merge does
// not land on the committed length the journal is kept and an error
// returned. The cost lands in acct — s.recovery for batch-triggered and
// drain checkpoints, s.migration when a migration freezes its base — and
// is returned for the caller to bill on.
func (s *shard[K, V]) compactLocked(acct *core.BatchStats) (core.BatchStats, error) {
	st := s.foldLocked(false)
	acct.Accumulate(st)
	if n := len(s.folder.out.keys); n != s.committedLen {
		return st, fmt.Errorf("shard %d: checkpoint merged %d keys, committed state had %d",
			s.id, n, s.committedLen)
	}
	s.base, s.folder.out = s.folder.out, s.base
	s.resetJournal(s.entries[:0])
	s.checkpoints++
	return st, nil
}

// foldLocked folds base ⊕ journal into the folder's buffer and reports the
// fold to the shard's trace sink, if it takes checkpoint events.
func (s *shard[K, V]) foldLocked(rebuild bool) core.BatchStats {
	st := s.folder.fold(s.base, s.entries)
	if k, ok := s.sink.(trace.CheckpointSink); ok {
		k.Checkpoint(trace.CheckpointStat{
			Shard:      s.id,
			Rebuild:    rebuild,
			BaseKeys:   len(s.base.keys),
			JournalOps: s.journalOps,
			Keys:       len(s.folder.out.keys),
			CPUWork:    st.CPUWork,
			CPUDepth:   st.CPUDepth,
		})
	}
	return st
}

// --- lifecycle API (control plane; serializes with run per shard) ---

// ShardStats is one shard's public health and cost summary.
type ShardStats struct {
	// State is the current lifecycle state.
	State ShardState
	// Len is the committed key count (meaningful even when Down).
	Len int
	// Batches counts acked sub-batches; Kills counts machine deaths
	// (terminal faults); Recoveries counts successful journal rebuilds;
	// Checkpoints counts journal checkpoints (size- or count-triggered,
	// drain, and migration freeze).
	Batches, Kills, Recoveries, Checkpoints int64
	// JournalBase and JournalBatches size the journal: checkpointed base
	// keys plus acked batches since the last checkpoint. JournalOps is the
	// total operation count across those batches (Σ keys per point entry,
	// Σ ops per transform entry) — the quantity the default size-triggered
	// checkpoint compares against Len, and the observable measure of
	// journal growth when CompactEvery < 0 disables compaction.
	JournalBase, JournalBatches, JournalOps int
	// Migrations counts epoch cutovers this shard took part in (as a source,
	// target, or retiree of SplitShard/MergeShards/Rebalance).
	Migrations int64
	// Total accumulates every acked batch's cost (including the recovery
	// work charged to those batches) plus every checkpoint; Recovery
	// isolates just the rebuild/checkpoint share. Checkpoints are
	// maintenance: they appear here but never in the per-call
	// Stats.Shards of the batch that tripped them, so in a fault-free run
	// Σ per-call Stats.Shards[i] plus Recovery equals Total. A checkpoint
	// is a host merge: it bills CPU work and depth only. Migration is the
	// Recovery-style account migration costs are charged to: base
	// freezes, bulk loads, and journal-suffix replays that built this
	// shard's new incarnations.
	Total, Recovery, Migration core.BatchStats
	// Faults accumulates fault-injection counters across all incarnations.
	Faults core.FaultStats
}

// ShardStats returns shard i's summary.
func (c *Cluster[K, V]) ShardStats(i int) ShardStats {
	s := c.view.load().shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStats{
		State:          s.state,
		Len:            s.committedLen,
		Batches:        s.batches,
		Kills:          s.kills,
		Recoveries:     s.recoveries,
		Checkpoints:    s.checkpoints,
		JournalBase:    len(s.base.keys),
		JournalBatches: len(s.entries),
		JournalOps:     s.journalOps,
		Migrations:     s.migrations,
		Total:          s.total,
		Recovery:       s.recovery,
		Migration:      s.migration,
		Faults:         s.faultsAcc,
	}
	if s.m != nil {
		addFaults(&st.Faults, s.m.FaultStats())
	}
	return st
}

// StartShard brings a Down shard back: a fresh machine is rebuilt from the
// journal (base + acked batches) and the shard resumes Running. Fails with
// ErrShardState unless the shard is Down, or ErrClosed on a closed cluster.
func (c *Cluster[K, V]) StartShard(i int) error {
	if c.closed.Load() {
		return core.ErrClosed
	}
	s := c.view.load().shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.migrating {
		return fmt.Errorf("shard %d: %w: StartShard during migration", i, ErrShardState)
	}
	if s.state != ShardDown {
		return fmt.Errorf("shard %d: %w: StartShard from %v", i, ErrShardState, s.state)
	}
	var scratch shardReply[K, V]
	if err := s.rebuildLocked(&scratch); err != nil {
		s.closeMachine()
		s.downCause = err
		return err
	}
	s.state = ShardRunning
	s.downCause = nil
	return nil
}

// DrainShard moves a Running shard to Draining: reads keep serving,
// mutations fail typed with ErrShardDraining, and the journal is
// checkpointed so the shard can be stopped with a minimal journal. The
// checkpoint is best-effort; its error is returned but the shard stays
// Draining.
func (c *Cluster[K, V]) DrainShard(i int) error {
	if c.closed.Load() {
		return core.ErrClosed
	}
	s := c.view.load().shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.migrating {
		return fmt.Errorf("shard %d: %w: DrainShard during migration", i, ErrShardState)
	}
	if s.state != ShardRunning {
		return fmt.Errorf("shard %d: %w: DrainShard from %v", i, ErrShardState, s.state)
	}
	s.state = ShardDraining
	if len(s.entries) > 0 {
		st, err := s.compactLocked(&s.recovery)
		s.total.Accumulate(st)
		return err
	}
	return nil
}

// StopShard takes a Running or Draining shard Down, retiring its machine.
// Its keys answer ErrShardDown until StartShard rebuilds it. Stopping a
// shard that is already Down — including one already killed by its fault
// plan — fails typed with ErrShardState, never panics; so does stopping a
// retired or migrating shard.
func (c *Cluster[K, V]) StopShard(i int) error {
	if c.closed.Load() {
		return core.ErrClosed
	}
	s := c.view.load().shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.migrating {
		return fmt.Errorf("shard %d: %w: StopShard during migration", i, ErrShardState)
	}
	if s.state == ShardDown || s.state == ShardRetired {
		return fmt.Errorf("shard %d: %w: StopShard from %v", i, ErrShardState, s.state)
	}
	s.goDown(nil)
	return nil
}
