// Live shard rebalancing: the migration protocol behind SplitShard,
// MergeShards, and Rebalance (docs/REBALANCE.md).
//
// A migration moves routing slots between shards by rebuilding every
// affected shard's state under the new table and publishing the result as
// the next routing epoch. It runs in three phases:
//
//  1. Freeze (gate held): mark the affected shards migrating (suppressing
//     auto-compaction and lifecycle transitions) and compact each journal,
//     so the base snapshot IS the committed state and the journal suffix
//     collected from here on is exactly the batches acked during the copy.
//  2. Copy (gate released — client traffic flows): partition the frozen
//     bases by the new table, sort each partition, and bulk-load one fresh
//     incarnation per surviving member. New incarnations are invisible:
//     they are built with a nil trace sink and referenced by nothing.
//  3. Cutover (gate reacquired — mutations frozen): sources enter the
//     ShardDraining state, the journal suffixes of all affected shards are
//     merged into global commit order by the cluster-wide sequence number,
//     replayed onto the new incarnations (a broadcast transform, journaled
//     once per mutating shard under one seq, applies exactly once per seq),
//     the key-count conservation invariant is verified, and the new epoch
//     publishes atomically.
//
// Exactly-once across faults: any failure before publish discards the new
// incarnations wholesale and leaves the old epoch serving — acked batches
// live in the old shards' journals, untouched (rollback). A source machine
// killed by client traffic mid-copy recovers through the normal run() path;
// if it exhausts its budget and goes Down, the cutover needs only its
// journal, so the migration completes and resurrects the shard under the
// new epoch (roll-forward). In both directions an acked batch is applied
// exactly once: it is either in the frozen base (via the freeze compaction)
// or in the replayed suffix, never both, never neither.
package cluster

import (
	"cmp"
	"fmt"
	"sort"

	"pimgo/internal/core"
	"pimgo/internal/trace"
)

// Migration phase names passed to MigrateOpts.OnPhase.
const (
	// PhaseCopy fires after the freeze, with the batch gate released: the
	// frozen bases are about to be partitioned and bulk-loaded while client
	// batches keep flowing (and accumulating in the journal suffix).
	PhaseCopy = "copy"
	// PhaseCatchup fires when the copy is complete, just before the cutover
	// reacquires the gate to replay the journal suffix and publish.
	PhaseCatchup = "catchup"
)

// MigrateOpts tunes one migration. The zero value (or nil) is valid.
type MigrateOpts struct {
	// OnPhase, when non-nil, is called synchronously at the PhaseCopy and
	// PhaseCatchup boundaries, with the batch gate released — the callback
	// may run batches against the cluster, which land in the old epoch and
	// are carried across the cutover by the journal-suffix replay. Tests and
	// benches use this to inject deterministic mid-migration traffic (and
	// mid-migration shard kills).
	OnPhase func(phase string)
	// TargetFault, for SplitShard, is the fault plan installed on the newly
	// created shard (nil = fault-free). A terminal kill plan can therefore
	// target the migration itself: the build strips it to its Inner() plan
	// and retries, bounded by MaxRecoveries.
	TargetFault core.FaultPlan
}

// MigrationReport summarizes one published (or attempted) migration.
type MigrationReport struct {
	// Epoch is the routing epoch after the call: old+1 when the migration
	// published, the unchanged current epoch when it did not.
	Epoch int64
	// SlotsMoved counts routing slots that changed owner.
	SlotsMoved int
	// KeysCopied counts pairs bulk-loaded from frozen bases into new
	// incarnations during the copy phase.
	KeysCopied int
	// SuffixBatches counts distinct cluster batches acked during the copy
	// and replayed at cutover.
	SuffixBatches int
	// Retries counts incarnation rebuilds consumed by faults injected into
	// the migration's own snapshot/build/replay operations.
	Retries int
	// Added and Retired list shard ids created (split targets) and retired
	// (merge victims) by the migration.
	Added   []int
	Retired []int
	// Stats is the migration's total model cost (also charged per shard to
	// ShardStats.Migration).
	Stats core.BatchStats
}

// SplitShard splits shard src: the latter half of its owned routing slots
// moves to a freshly created shard (returned id == Shards() before the
// call), migrated live under the three-phase protocol above. It fails typed
// with ErrRebalancing if another migration is in flight, ErrConcurrentBatch
// if a batch holds the gate, and ErrShardState if src is not
// Running or owns fewer than two slots.
func (c *Cluster[K, V]) SplitShard(src int, opts *MigrateOpts) (int, MigrationReport, error) {
	base := c.view.load()
	if src < 0 || src >= len(base.shards) {
		return -1, MigrationReport{Epoch: base.id}, fmt.Errorf("%w: SplitShard(%d) of %d shards", ErrBadConfig, src, len(base.shards))
	}
	var owned []int
	for j, sh := range base.slots {
		if int(sh) == src {
			owned = append(owned, j)
		}
	}
	if len(owned) < 2 {
		return -1, MigrationReport{Epoch: base.id}, fmt.Errorf("shard %d: %w: split needs >= 2 routing slots, shard owns %d",
			src, ErrShardState, len(owned))
	}
	tgt := len(base.shards)
	newSlots := append([]int32(nil), base.slots...)
	for _, j := range owned[len(owned)/2:] {
		newSlots[j] = int32(tgt)
	}
	ns := &shard[K, V]{c: c, id: tgt}
	if opts != nil {
		ns.plan = opts.TargetFault
	}
	if c.cfg.Trace != nil {
		ns.sink = trace.Shard(tgt, c.cfg.Trace(tgt))
	}
	rep, err := c.migrate(base, newSlots, []*shard[K, V]{ns}, opts)
	if err != nil {
		return -1, rep, err
	}
	return tgt, rep, nil
}

// MergeShards merges shard src into dst: every slot src owns moves to dst
// and src retires (ShardRetired — terminal, its id stays on the roster).
// Error surface as SplitShard; both shards must be Running and own at least
// one slot.
func (c *Cluster[K, V]) MergeShards(dst, src int, opts *MigrateOpts) (MigrationReport, error) {
	base := c.view.load()
	rep := MigrationReport{Epoch: base.id}
	if src < 0 || src >= len(base.shards) || dst < 0 || dst >= len(base.shards) {
		return rep, fmt.Errorf("%w: MergeShards(%d, %d) of %d shards", ErrBadConfig, dst, src, len(base.shards))
	}
	if src == dst {
		return rep, fmt.Errorf("%w: MergeShards src == dst (%d)", ErrBadConfig, src)
	}
	if base.owned[src] == 0 || base.owned[dst] == 0 {
		return rep, fmt.Errorf("shards %d, %d: %w: merge needs both shards to own slots (retired?)",
			dst, src, ErrShardState)
	}
	newSlots := append([]int32(nil), base.slots...)
	for j, sh := range newSlots {
		if int(sh) == src {
			newSlots[j] = int32(dst)
		}
	}
	return c.migrate(base, newSlots, nil, opts)
}

// incarnation is one surviving shard's replacement state under the new
// table: the fresh machine, the sorted base partition it was bulk-loaded
// from, and the journal it starts the new epoch with.
type incarnation[K cmp.Ordered, V any] struct {
	s    *shard[K, V]
	plan core.FaultPlan
	m    *core.Map[K, V]

	keys []K
	vals []V

	entries       []logEntry[K, V]
	suffixBatches int
	retries       int
	cost          core.BatchStats
	slotsBefore   int
}

// suffixRef orders one journal entry within the merged cross-shard suffix.
type suffixRef[K cmp.Ordered, V any] struct {
	src int
	e   *logEntry[K, V]
}

// migrate runs the three-phase protocol, moving the cluster from base's
// table to newSlots (with added appended to the roster). See the package
// comment at the top of this file for the protocol and its exactly-once
// argument.
func (c *Cluster[K, V]) migrate(base *epochView[K, V], newSlots []int32, added []*shard[K, V], opts *MigrateOpts) (MigrationReport, error) {
	rep := MigrationReport{Epoch: base.id}
	var onPhase func(string)
	if opts != nil {
		onPhase = opts.OnPhase
	}
	if err := c.begin(); err != nil {
		return rep, err
	}
	if !c.migrating.CompareAndSwap(false, true) {
		c.end()
		return rep, fmt.Errorf("%w: another migration is in flight", ErrRebalancing)
	}
	release := func() { c.migrating.Store(false); c.end() } // call with gate held
	if c.view.load() != base {
		release()
		return rep, fmt.Errorf("%w: routing table changed since the plan was made", ErrRebalancing)
	}

	nOld, nAll := len(base.shards), len(base.shards)+len(added)
	touched := make([]bool, nAll)
	for j := range newSlots {
		if newSlots[j] != base.slots[j] {
			rep.SlotsMoved++
			touched[base.slots[j]] = true
			touched[newSlots[j]] = true
		}
	}
	if rep.SlotsMoved == 0 && len(added) == 0 {
		release()
		return rep, nil
	}
	var affected []int // existing shards whose ownership changes, ascending
	for id := 0; id < nOld; id++ {
		if touched[id] {
			affected = append(affected, id)
		}
	}
	ownedNew := make([]int, nAll)
	for _, sh := range newSlots {
		ownedNew[sh]++
	}

	// --- Phase 1: freeze (gate held) ---
	unmark := func() {
		for _, id := range affected {
			s := base.shards[id]
			s.mu.Lock()
			s.migrating = false
			s.mu.Unlock()
		}
	}
	for k, id := range affected {
		s := base.shards[id]
		s.mu.Lock()
		if s.state != ShardRunning {
			st := s.state
			s.mu.Unlock()
			for _, pid := range affected[:k] {
				p := base.shards[pid]
				p.mu.Lock()
				p.migrating = false
				p.mu.Unlock()
			}
			release()
			return rep, fmt.Errorf("shard %d: %w: migrate from %v", id, ErrShardState, st)
		}
		s.migrating = true
		s.mu.Unlock()
	}
	for _, id := range affected {
		s := base.shards[id]
		s.mu.Lock()
		err := s.freezeBaseLocked(&rep)
		s.mu.Unlock()
		if err != nil {
			unmark()
			release()
			return rep, fmt.Errorf("shard %d: freezing journal base: %w", id, err)
		}
	}
	// Build the rebuild set (surviving members of the new table) and
	// capture the frozen bases. The captured slice headers stay valid for
	// the whole migration: compaction is suppressed while s.migrating and
	// lifecycle transitions are refused, so nothing reassigns them.
	incByID := make([]*incarnation[K, V], nAll)
	var incs []*incarnation[K, V]
	type frozen struct {
		keys []K
		vals []V
	}
	froz := make([]frozen, 0, len(affected))
	for id := 0; id < nAll; id++ {
		if !touched[id] || ownedNew[id] == 0 {
			continue
		}
		var s *shard[K, V]
		if id < nOld {
			s = base.shards[id]
		} else {
			s = added[id-nOld]
		}
		inc := &incarnation[K, V]{s: s}
		if id < nOld {
			inc.slotsBefore = base.owned[id]
		}
		s.mu.Lock()
		inc.plan = s.plan
		s.mu.Unlock()
		incByID[id] = inc
		incs = append(incs, inc)
	}
	for _, id := range affected {
		s := base.shards[id]
		s.mu.Lock()
		froz = append(froz, frozen{s.baseKeys, s.baseVals})
		s.mu.Unlock()
	}

	// --- Phase 2: copy (gate released; client traffic flows) ---
	c.end()
	if onPhase != nil {
		onPhase(PhaseCopy)
	}

	// abort discards every built incarnation and clears the migration marks,
	// leaving the old epoch serving. Costs already burned stay charged.
	abort := func(gateHeld bool) {
		for _, inc := range incs {
			if inc.m != nil {
				inc.m.Close()
				inc.m = nil
			}
			inc.s.mu.Lock()
			inc.s.migration.Accumulate(inc.cost)
			inc.s.mu.Unlock()
		}
		unmark()
		if gateHeld {
			release()
		} else {
			c.migrating.Store(false)
		}
	}

	// Partition the frozen bases by the new table.
	for k := range affected {
		fz := froz[k]
		for i, key := range fz.keys {
			owner := int(newSlots[c.slotOf(key, len(newSlots))])
			inc := incByID[owner]
			inc.keys = append(inc.keys, key)
			inc.vals = append(inc.vals, fz.vals[i])
		}
	}
	for _, inc := range incs {
		sortPairs(inc.keys, inc.vals)
		rep.KeysCopied += len(inc.keys)
	}
	for _, inc := range incs {
		if err := c.buildIncarnation(inc, &rep); err != nil {
			abort(false)
			return rep, fmt.Errorf("shard %d: building incarnation: %w", inc.s.id, err)
		}
	}
	if onPhase != nil {
		onPhase(PhaseCatchup)
	}

	// --- Phase 3: cutover (gate reacquired; mutations frozen) ---
	if err := c.begin(); err != nil {
		abort(false)
		return rep, err
	}
	// Freeze the sources behind ShardDraining for the cutover window (a
	// shard that went Down to client traffic mid-copy stays Down; the
	// journal is all the cutover needs — roll-forward).
	drained := make([]bool, nOld)
	for _, id := range affected {
		s := base.shards[id]
		s.mu.Lock()
		if s.state == ShardRunning {
			s.state = ShardDraining
			drained[id] = true
		}
		s.mu.Unlock()
	}
	rollback := func() {
		for _, id := range affected {
			if !drained[id] {
				continue
			}
			s := base.shards[id]
			s.mu.Lock()
			if s.state == ShardDraining {
				s.state = ShardRunning
			}
			s.mu.Unlock()
		}
		abort(true)
	}

	// Merge the journal suffixes into global commit order. Entries within a
	// shard are already seq-ascending; the stable sort keeps the (seq, shard)
	// order deterministic.
	var suffix []suffixRef[K, V]
	var oldLen int
	for _, id := range affected {
		s := base.shards[id]
		s.mu.Lock()
		for i := range s.entries {
			suffix = append(suffix, suffixRef[K, V]{src: id, e: &s.entries[i]})
		}
		oldLen += s.committedLen
		s.mu.Unlock()
	}
	sort.SliceStable(suffix, func(a, b int) bool {
		if suffix[a].e.seq != suffix[b].e.seq {
			return suffix[a].e.seq < suffix[b].e.seq
		}
		return suffix[a].src < suffix[b].src
	})
	lastSeq := int64(-1)
	for _, ref := range suffix {
		if ref.e.seq != lastSeq {
			rep.SuffixBatches++
			lastSeq = ref.e.seq
		}
	}
	// Roll-forward safety: a broadcast transform must have been acked by
	// every affected shard (a Running shard always acks or goes Down). If a
	// shard died mid-transform the suffix cannot be replayed exactly for its
	// keys — roll back instead of guessing.
	if err := transformsConsistent(suffix, affected); err != nil {
		rollback()
		return rep, err
	}
	for _, inc := range incs {
		for {
			err := c.replaySuffix(inc, suffix, newSlots, &rep)
			if err == nil {
				break
			}
			if !c.allowMigrationRetry(inc, &rep) {
				rollback()
				return rep, fmt.Errorf("shard %d: replaying journal suffix: %w", inc.s.id, err)
			}
			// The incarnation has partial suffix state: rebuild it from
			// scratch (fresh machine + base partition), then replay again.
			if err := c.buildIncarnation(inc, &rep); err != nil {
				rollback()
				return rep, fmt.Errorf("shard %d: rebuilding incarnation: %w", inc.s.id, err)
			}
		}
	}
	// Conservation: the new incarnations must hold exactly the keys the old
	// epoch committed.
	newLen := 0
	for _, inc := range incs {
		newLen += inc.m.Len()
	}
	if newLen != oldLen {
		rollback()
		return rep, fmt.Errorf("cluster migration rebuilt %d keys, committed state had %d (rolled back)", newLen, oldLen)
	}

	// --- Publish ---
	shards := make([]*shard[K, V], 0, nAll)
	shards = append(shards, base.shards...)
	shards = append(shards, added...)
	next := newEpochView(base.id+1, newSlots, shards)
	for _, inc := range incs {
		s := inc.s
		s.mu.Lock()
		s.closeMachine() // banks the old incarnation's fault counters
		s.m = inc.m
		s.m.SetTraceSink(s.sink)
		s.plan = inc.plan
		s.baseKeys, s.baseVals = inc.keys, inc.vals
		s.resetJournal(inc.entries) // replaySuffix copied them out of every arena
		s.committedLen = s.m.Len()
		s.state = ShardRunning
		s.downCause = nil
		s.migrating = false
		s.migrations++
		s.migration.Accumulate(inc.cost)
		s.mu.Unlock()
	}
	for _, id := range affected {
		if ownedNew[id] != 0 {
			continue
		}
		s := base.shards[id] // merge victim: retires with no state
		s.mu.Lock()
		s.closeMachine()
		s.state = ShardRetired
		s.downCause = nil
		s.baseKeys, s.baseVals = nil, nil
		s.resetJournal(nil)
		s.logKeys, s.logVals = nil, nil
		s.committedLen = 0
		s.migrating = false
		s.migrations++
		s.mu.Unlock()
		rep.Retired = append(rep.Retired, id)
	}
	for id := nOld; id < nAll; id++ {
		rep.Added = append(rep.Added, id)
	}
	c.view.store(next)
	rep.Epoch = next.id

	// Emit migration trace events — the gate is held, so every shard sink
	// is idle and the single-goroutine contract holds.
	for _, inc := range incs {
		emitMigration(inc.s.sink, trace.MigrationStat{
			Shard:         inc.s.id,
			Epoch:         next.id,
			SlotsBefore:   inc.slotsBefore,
			SlotsAfter:    ownedNew[inc.s.id],
			KeysLoaded:    len(inc.keys),
			SuffixBatches: inc.suffixBatches,
			Retries:       inc.retries,
			Rounds:        inc.cost.Rounds,
			IOTime:        inc.cost.IOTime,
		})
	}
	for _, id := range rep.Retired {
		emitMigration(base.shards[id].sink, trace.MigrationStat{
			Shard:       id,
			Epoch:       next.id,
			SlotsBefore: base.owned[id],
			Retired:     true,
		})
	}
	release()
	return rep, nil
}

// emitMigration forwards ms to sink when it accepts migration events.
func emitMigration(sink trace.Sink, ms trace.MigrationStat) {
	if m, ok := sink.(trace.MigrationSink); ok && sink != nil {
		m.Migration(ms)
	}
}

// transformsConsistent verifies that every affected shard journaled every
// broadcast-transform batch present in the merged suffix (identified by
// seq). A violation means a shard died mid-transform without acking it —
// replaying another shard's copy would apply the transform to keys whose
// old shard never committed it.
func transformsConsistent[K cmp.Ordered, V any](suffix []suffixRef[K, V], affected []int) error {
	seqs := map[int64]map[int]bool{}
	for _, ref := range suffix {
		if ref.e.kind != logTransform {
			continue
		}
		if seqs[ref.e.seq] == nil {
			seqs[ref.e.seq] = map[int]bool{}
		}
		seqs[ref.e.seq][ref.src] = true
	}
	for seq, who := range seqs {
		for _, id := range affected {
			if !who[id] {
				return fmt.Errorf("%w: shard %d never acked broadcast transform batch %d; rolled back",
					ErrRebalancing, id, seq)
			}
		}
	}
	return nil
}

// allowMigrationRetry consumes one unit of the incarnation's rebuild budget
// (the same MaxRecoveries/DisableRecovery policy run() applies to shard
// recovery).
func (c *Cluster[K, V]) allowMigrationRetry(inc *incarnation[K, V], rep *MigrationReport) bool {
	if c.cfg.DisableRecovery {
		return false
	}
	if c.cfg.MaxRecoveries >= 0 && inc.retries >= c.cfg.MaxRecoveries {
		return false
	}
	inc.retries++
	rep.Retries++
	return true
}

// buildIncarnation constructs inc's fresh machine and bulk-loads its sorted
// base partition, retrying (with a terminal kill plan stripped to its inner
// plan — the kill consumed the attempt it was aimed at) within the rebuild
// budget. The machine is built with a nil trace sink so the live
// incarnation keeps exclusive use of the shard's sink until cutover; the
// sink is installed at publish.
func (c *Cluster[K, V]) buildIncarnation(inc *incarnation[K, V], rep *MigrationReport) error {
	if inc.m != nil {
		inc.m.Close()
		inc.m = nil
	}
	charge := func(st core.BatchStats) {
		inc.cost.Accumulate(st)
		rep.Stats.Accumulate(st)
	}
	for {
		m, err := core.TryNew[K, V](inc.s.configWith(inc.plan, nil), c.hash)
		if err == nil {
			if len(inc.keys) > 0 {
				st, lerr := m.TryBulkLoad(inc.keys, inc.vals)
				charge(st)
				if lerr != nil {
					charge(m.PartialStats())
					err = lerr
				}
			}
		}
		if err == nil {
			inc.m = m
			return nil
		}
		if m != nil {
			m.Close()
		}
		if ip, ok := inc.plan.(interface{ Inner() core.FaultPlan }); ok {
			inc.plan = ip.Inner()
		}
		if !c.allowMigrationRetry(inc, rep) {
			return err
		}
	}
}

// replaySuffix applies the merged journal suffix to inc's new incarnation:
// point entries filtered to the keys inc owns under the new table, and
// broadcast transforms exactly once per seq. It rebuilds inc's new-epoch
// journal (base = the bulk-loaded partition, entries = its share of the
// suffix, seqs preserved) along the way.
func (c *Cluster[K, V]) replaySuffix(inc *incarnation[K, V], suffix []suffixRef[K, V], newSlots []int32, rep *MigrationReport) error {
	inc.entries = nil
	inc.suffixBatches = 0
	charge := func(st core.BatchStats) {
		inc.cost.Accumulate(st)
		rep.Stats.Accumulate(st)
	}
	fail := func(err error) error {
		charge(inc.m.PartialStats())
		return err
	}
	id := int32(inc.s.id)
	lastTransform := int64(-1)
	for _, ref := range suffix {
		e := ref.e
		switch e.kind {
		case logTransform:
			if e.seq == lastTransform {
				continue // same broadcast batch, journaled by another shard
			}
			lastTransform = e.seq
			_, st, err := inc.m.TryRangeAuto(e.ops)
			charge(st)
			if err != nil {
				return fail(err)
			}
			inc.entries = append(inc.entries, logEntry[K, V]{kind: logTransform, seq: e.seq, ops: e.ops})
			inc.suffixBatches++
		default:
			var keys []K
			var vals []V
			for i, k := range e.keys {
				if newSlots[c.slotOf(k, len(newSlots))] != id {
					continue
				}
				keys = append(keys, k)
				if e.kind == logUpsert {
					vals = append(vals, e.vals[i])
				}
			}
			if len(keys) == 0 {
				continue
			}
			var st core.BatchStats
			var err error
			if e.kind == logUpsert {
				_, st, err = inc.m.TryUpsert(keys, vals)
			} else {
				_, st, err = inc.m.TryDelete(keys)
			}
			charge(st)
			if err != nil {
				return fail(err)
			}
			inc.entries = append(inc.entries, logEntry[K, V]{kind: e.kind, seq: e.seq, keys: keys, vals: vals})
			inc.suffixBatches++
		}
	}
	return nil
}

// sortPairs sorts keys ascending, permuting vals alongside.
func sortPairs[K cmp.Ordered, V any](keys []K, vals []V) {
	sort.Sort(&pairSorter[K, V]{keys, vals})
}

type pairSorter[K cmp.Ordered, V any] struct {
	keys []K
	vals []V
}

func (p *pairSorter[K, V]) Len() int           { return len(p.keys) }
func (p *pairSorter[K, V]) Less(a, b int) bool { return p.keys[a] < p.keys[b] }
func (p *pairSorter[K, V]) Swap(a, b int) {
	p.keys[a], p.keys[b] = p.keys[b], p.keys[a]
	p.vals[a], p.vals[b] = p.vals[b], p.vals[a]
}

// freezeBaseLocked compacts the shard's journal into its base snapshot so a
// migration's copy phase starts from the exact committed state, retrying
// through machine rebuilds within the recovery budget. Costs charge to the
// migration report and the shard's Migration account (rebuilds of a killed
// machine still charge Recovery, as ever).
func (s *shard[K, V]) freezeBaseLocked(rep *MigrationReport) error {
	if len(s.entries) == 0 {
		return nil // base already is the committed state
	}
	retries := 0
	for {
		var st core.BatchStats
		err := s.compactLocked(&st, &s.migration)
		rep.Stats.Accumulate(st)
		if err == nil {
			return nil
		}
		// The snapshot died; rebuild the machine (normal recovery path) and
		// try again, within the shared budget.
		for {
			if s.c.cfg.DisableRecovery ||
				(s.c.cfg.MaxRecoveries >= 0 && retries >= s.c.cfg.MaxRecoveries) {
				s.goDown(err)
				return s.downErr()
			}
			retries++
			rep.Retries++
			var scratch shardReply[K, V]
			rerr := s.rebuildLocked(&scratch) // charges scratch.st + s.recovery
			rep.Stats.Accumulate(scratch.st)
			if rerr == nil {
				break
			}
			err = rerr
		}
	}
}
