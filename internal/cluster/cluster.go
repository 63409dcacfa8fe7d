// Package cluster shards one logical ordered map across N independent
// core.Map instances — the "multiple PIM systems" scale-out the paper's
// single-machine model stops short of. Each shard owns a full machine (its
// own P modules, fault plan, and trace sink), so a fault that takes a shard
// down is isolated: the cluster either recovers the shard transparently
// from its journal (exactly-once — replies stay bit-identical to a
// single-Map oracle) or degrades to typed per-key ErrShardDown errors while
// the surviving shards keep serving.
//
// Routing is a pure hash through an epoch-versioned slot table:
// slotOf(k) = Mix64(hash(k) ^ salt) mod Slots never changes, while the
// slot→shard ownership table is an immutable snapshot republished by live
// migrations (route.go, migrate.go) — SplitShard, MergeShards, and the
// policy-driven Rebalance move slots between shards online, with replies
// bit-identical to a single Map across the cutover. The salt is derived
// from the cluster seed, decorrelating shard routing from the intra-shard
// module routing that uses hash(k) directly. Batches scatter into
// per-shard sub-batches with one stable counting sort (the reply-assembly
// idiom of internal/pim/reliable.go), execute shards in parallel, and
// gather replies back into the caller's submission order. See
// docs/CLUSTER.md and docs/REBALANCE.md.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pimgo/internal/core"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

// Typed errors; callers match with errors.Is.
var (
	// ErrBadConfig reports an invalid cluster Config.
	ErrBadConfig = errors.New("pimgo: invalid cluster configuration")
	// ErrShardDown reports that a shard is permanently down (recovery
	// disabled, exhausted, or stopped by the caller). Point-op batches
	// surface it per key in the errs slice; order queries (Successor,
	// RangeOperation) surface it on every result, since any down shard
	// could hold the answer.
	ErrShardDown = errors.New("pimgo: shard is down")
	// ErrShardDraining reports a mutating batch routed to a draining shard.
	ErrShardDraining = errors.New("pimgo: shard is draining")
	// ErrShardState reports a lifecycle transition invalid from the shard's
	// current state (e.g. StartShard on a running shard, StopShard on a
	// retired or migrating shard).
	ErrShardState = errors.New("pimgo: invalid shard lifecycle transition")
	// ErrRebalancing reports a migration rejected because another migration
	// is already in flight, or because the routing table changed between
	// planning and execution.
	ErrRebalancing = errors.New("pimgo: cluster is rebalancing")
)

// ShardState is one shard's lifecycle state.
type ShardState int8

const (
	// ShardRunning serves all batch kinds (the steady state).
	ShardRunning ShardState = iota
	// ShardDraining serves reads (Get, Successor, non-transform ranges)
	// but refuses mutations, so a checkpointed shard can be handed off.
	ShardDraining
	// ShardDown serves nothing; keys routed to it error with ErrShardDown.
	ShardDown
	// ShardRetired marks a merge victim: the shard owns zero routing slots,
	// holds no state, and is skipped by broadcasts. Retirement is terminal —
	// a later split appends a fresh shard rather than reviving a retired id,
	// so shard ids stay stable for stats and trace attribution.
	ShardRetired
)

// String renders the state for logs and tables.
func (s ShardState) String() string {
	switch s {
	case ShardRunning:
		return "running"
	case ShardDraining:
		return "draining"
	case ShardDown:
		return "down"
	case ShardRetired:
		return "retired"
	}
	return fmt.Sprintf("ShardState(%d)", int8(s))
}

// Config parameterizes a Cluster.
type Config struct {
	// Shards is the number of shards at construction. Required, ≥ 1. Live
	// migrations (SplitShard/MergeShards/Rebalance) grow and shrink the
	// active roster afterwards.
	Shards int
	// Slots is the number of routing slots keys hash into; slot ownership —
	// not the key hash — is what migrations move, so Slots bounds rebalancing
	// granularity and never changes after construction. 0 selects
	// max(256, Shards); otherwise it must be ≥ Shards so every shard can own
	// at least one slot.
	Slots int
	// Seed drives the routing salt and the per-shard core seeds. Clusters
	// with equal seeds are bit-identical.
	Seed uint64
	// Shard is the template core.Config every shard machine is built from.
	// Its Seed, Fault, and Trace fields must be zero — the cluster derives
	// a distinct seed per shard and installs Faults[i]/Trace(i) instead.
	Shard core.Config
	// ShardP overrides Shard.P per shard (mixed-size clusters). Empty means
	// uniform; otherwise it must have exactly Shards entries.
	ShardP []int
	// Faults installs a fault plan per shard (nil entries are fault-free).
	// Empty means all shards fault-free; otherwise exactly Shards entries.
	// A pim.KillPlan entry kills that shard permanently mid-run; on rebuild
	// the supervisor strips it to its Inner() plan.
	Faults []core.FaultPlan
	// Trace, when non-nil, is called once per shard at construction to
	// build that shard's trace sink; the cluster wraps each in
	// trace.Shard(i, ·) so op labels carry "s<i>/" attribution. One sink
	// per shard is mandatory (the Sink contract is single-goroutine and
	// shards execute in parallel), which is why this is a factory and not a
	// single Sink. The sink survives shard rebuilds.
	Trace func(shard int) trace.Sink
	// MaxRecoveries bounds journal rebuilds per shard before it goes Down.
	// 0 selects 3; negative means unbounded.
	MaxRecoveries int
	// DisableRecovery turns every shard kill into an immediate transition
	// to ShardDown (degraded mode), instead of a journal rebuild.
	DisableRecovery bool
	// CompactEvery selects when a shard checkpoints its journal: merges it,
	// on the host, into a new base. 0 (the default) is the size rule:
	// checkpoint once the journal holds as many ops as the shard holds
	// keys. A merge over n base keys is then paid for by at least n
	// journaled ops — amortized O(1) per op — and a rebuild folds at most
	// n journaled ops into the base and bulk-loads the result. A positive
	// value instead checkpoints every that-many journaled batches,
	// whatever their size; negative disables compaction (the journal grows
	// without bound).
	CompactEvery int
}

// Stats aggregates the model cost of one cluster batch. Per-shard costs are
// kept separate — shards run in parallel, so elapsed-time metrics combine
// by max while throughput metrics combine by sum — and recovery costs
// (failed attempts, rebuilds, journal replays) are folded into the shard
// that paid them.
type Stats struct {
	// Batch is the number of operations the caller submitted.
	Batch int
	// Shards holds each shard's accumulated cost for this batch; shards
	// that received no work report zero stats.
	Shards []core.BatchStats
	// Recovered counts shard rebuilds performed during this batch.
	Recovered int
}

// MaxRounds returns the parallel-elapsed round count: the slowest shard.
func (s Stats) MaxRounds() int64 {
	var v int64
	for i := range s.Shards {
		v = max(v, s.Shards[i].Rounds)
	}
	return v
}

// MaxIOTime returns the parallel-elapsed IO time: the slowest shard.
func (s Stats) MaxIOTime() int64 {
	var v int64
	for i := range s.Shards {
		v = max(v, s.Shards[i].IOTime)
	}
	return v
}

// TotalMsgs returns the cluster-wide message total.
func (s Stats) TotalMsgs() int64 {
	var v int64
	for i := range s.Shards {
		v += s.Shards[i].TotalMsgs
	}
	return v
}

// TotalPIMWork returns the cluster-wide summed module work.
func (s Stats) TotalPIMWork() int64 {
	var v int64
	for i := range s.Shards {
		v += s.Shards[i].TotalPIMWork
	}
	return v
}

// Cluster is a sharded map: N core.Map shards behind a deterministic hash
// router with the full batch API. Like core.Map it is single-driver — one
// batch at a time, concurrent callers fail typed with ErrConcurrentBatch —
// but within a batch the shards execute in parallel.
type Cluster[K cmp.Ordered, V any] struct {
	cfg  Config
	hash func(K) uint64
	salt uint64

	// view is the current routing epoch (slot table + shard roster). It is
	// replaced — never mutated — and only while the batch gate is held, so
	// every batch sees exactly one epoch (route.go).
	view viewPtr[K, V]

	inBatch   atomic.Bool
	closed    atomic.Bool
	migrating atomic.Bool

	// mutSeq stamps every acked mutating batch with a cluster-wide commit
	// sequence number (written only under the batch gate). Migration cutover
	// merges per-shard journal suffixes by this sequence, which is what lets
	// a broadcast transform — journaled by every mutating shard — replay
	// exactly once per batch (shard.go, migrate.go).
	mutSeq int64

	ws clusterWS[K, V]
}

// clusterWS is the scatter workspace, reused across batches so the
// steady-state routing path allocates only for growth.
type clusterWS[K cmp.Ordered, V any] struct {
	home   []int // shard of keys[i]
	counts []int // per-shard sub-batch sizes, then prefix-summed starts
	starts []int
	order  []int // submission index in scatter position
	keys   []K   // keys permuted shard-major
	vals   []V
}

// New builds a cluster per cfg. hash is the key hasher shared by the router
// and every shard (see core.Uint64Hash). Construction faults — including a
// shard machine that dies during initial bring-up — are returned, with any
// already-started shards closed.
func New[K cmp.Ordered, V any](cfg Config, hash func(K) uint64) (*Cluster[K, V], error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards must be >= 1, got %d", ErrBadConfig, cfg.Shards)
	}
	if hash == nil {
		return nil, fmt.Errorf("%w: nil key hasher", ErrBadConfig)
	}
	if cfg.Shard.Seed != 0 || cfg.Shard.Fault != nil || cfg.Shard.Trace != nil {
		return nil, fmt.Errorf("%w: Shard template must leave Seed/Fault/Trace zero (the cluster derives them per shard)", ErrBadConfig)
	}
	if len(cfg.ShardP) != 0 && len(cfg.ShardP) != cfg.Shards {
		return nil, fmt.Errorf("%w: ShardP has %d entries for %d shards", ErrBadConfig, len(cfg.ShardP), cfg.Shards)
	}
	if len(cfg.Faults) != 0 && len(cfg.Faults) != cfg.Shards {
		return nil, fmt.Errorf("%w: Faults has %d entries for %d shards", ErrBadConfig, len(cfg.Faults), cfg.Shards)
	}
	if cfg.MaxRecoveries == 0 {
		cfg.MaxRecoveries = 3
	}
	if cfg.Slots == 0 {
		cfg.Slots = max(256, cfg.Shards)
	}
	if cfg.Slots < cfg.Shards {
		return nil, fmt.Errorf("%w: Slots (%d) must be >= Shards (%d)", ErrBadConfig, cfg.Slots, cfg.Shards)
	}
	c := &Cluster[K, V]{
		cfg:  cfg,
		hash: hash,
		salt: rng.Mix64(cfg.Seed ^ saltRouter),
	}
	shards := make([]*shard[K, V], cfg.Shards)
	for i := range shards {
		s := &shard[K, V]{c: c, id: i}
		if len(cfg.Faults) != 0 {
			s.plan = cfg.Faults[i]
		}
		if cfg.Trace != nil {
			s.sink = trace.Shard(i, cfg.Trace(i))
		}
		if err := s.boot(); err != nil {
			for _, prev := range shards[:i] {
				prev.closeMachine()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i] = s
	}
	// Epoch 0: slots dealt round-robin, the same balanced assignment the
	// fixed mod-N router produced.
	slots := make([]int32, cfg.Slots)
	for j := range slots {
		slots[j] = int32(j % cfg.Shards)
	}
	c.view.store(newEpochView(0, slots, shards))
	return c, nil
}

// saltRouter decorrelates the router's hash draw from the per-shard module
// routing, which consumes hash(k) directly.
const saltRouter = 0x7c15_9d2b_4bfa_8e63

// Shards returns the current number of shards, including retired ones
// (shard ids are stable; splits append, merges retire in place).
func (c *Cluster[K, V]) Shards() int { return len(c.view.load().shards) }

// ShardFor returns the shard key routes to in the current epoch: the owner
// of the key's routing slot. Within one epoch the routing is a pure
// function of (hash, Seed, Slots, table): independent of GOMAXPROCS,
// insertion history, and shard health — a down shard still owns its keys.
// Across epochs only migrated slots change owner.
func (c *Cluster[K, V]) ShardFor(key K) int {
	v := c.view.load()
	return int(v.slots[c.slotOf(key, len(v.slots))])
}

// Len returns the committed number of keys across all shards, including
// those owned by down shards (their journaled state still defines the
// logical map contents).
func (c *Cluster[K, V]) Len() int {
	n := 0
	for _, s := range c.view.load().shards {
		s.mu.Lock()
		n += s.committedLen
		s.mu.Unlock()
	}
	return n
}

// Close releases every shard machine. Further batches fail with ErrClosed.
// Exactly one caller wins: it runs the teardown and returns nil; every
// other concurrent or later Close returns core.ErrClosed (mirroring
// Frontend.Close's deterministic contract).
func (c *Cluster[K, V]) Close() error {
	if c.closed.Swap(true) {
		return core.ErrClosed
	}
	for _, s := range c.view.load().shards {
		s.mu.Lock()
		s.closeMachine()
		s.state = ShardDown
		s.downCause = core.ErrClosed
		s.mu.Unlock()
	}
	return nil
}

// Closed reports whether Close has been called.
func (c *Cluster[K, V]) Closed() bool { return c.closed.Load() }

// begin acquires the cluster's single-flight gate.
func (c *Cluster[K, V]) begin() error {
	if c.closed.Load() {
		return core.ErrClosed
	}
	if !c.inBatch.CompareAndSwap(false, true) {
		return core.ErrConcurrentBatch
	}
	if c.closed.Load() { // lost a race with Close
		c.inBatch.Store(false)
		return core.ErrClosed
	}
	return nil
}

func (c *Cluster[K, V]) end() { c.inBatch.Store(false) }

// scatter routes keys (and vals, when non-nil) into shard-major,
// submission-order-within-shard position in the cluster's workspace using
// one stable counting sort — the reply-assembly idiom of the reliable
// transport. After scatter, ws.starts[s]..starts[s]+counts[s] is shard s's
// sub-batch and ws.order[j] is the submission index occupying scatter
// position j, which gather uses to put replies back into the caller's
// order. The epoch cannot change while the gate is held (migrations need
// the gate to publish), so the routing table loaded here stays current for
// the whole batch.
func (c *Cluster[K, V]) scatter(keys []K, vals []V) {
	ws := &c.ws
	v := c.view.load()
	n := len(keys)
	ns := len(v.shards)
	ws.home = resize(ws.home, n)
	ws.order = resize(ws.order, n)
	ws.keys = resize(ws.keys, n)
	ws.counts = resize(ws.counts, ns)
	ws.starts = resize(ws.starts, ns)
	if vals != nil {
		ws.vals = resize(ws.vals, n)
	}
	for i := range ws.counts {
		ws.counts[i] = 0
	}
	for i, k := range keys {
		h := int(v.slots[c.slotOf(k, len(v.slots))])
		ws.home[i] = h
		ws.counts[h]++
	}
	sum := 0
	for s := 0; s < ns; s++ {
		ws.starts[s] = sum
		sum += ws.counts[s]
		ws.counts[s] = ws.starts[s] // reuse as running cursor
	}
	for i, k := range keys {
		j := ws.counts[ws.home[i]]
		ws.counts[ws.home[i]]++
		ws.order[j] = i
		ws.keys[j] = k
		if vals != nil {
			ws.vals[j] = vals[i]
		}
	}
	// Restore counts to sub-batch sizes.
	for s := 0; s < ns; s++ {
		ws.counts[s] -= ws.starts[s]
	}
}

// resize returns s with length n, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runShards executes one sub-batch per shard in parallel and returns the
// per-shard replies. Shards with a nil batch are skipped (they received no
// work and charge nothing). Assembly is by shard index, so the result is
// deterministic regardless of goroutine scheduling.
func (c *Cluster[K, V]) runShards(batches []*shardBatch[K, V]) []shardReply[K, V] {
	shards := c.view.load().shards
	reps := make([]shardReply[K, V], len(shards))
	var wg sync.WaitGroup
	for i, b := range batches {
		if b == nil {
			continue
		}
		wg.Add(1)
		go func(i int, b *shardBatch[K, V]) {
			defer wg.Done()
			reps[i] = shards[i].run(b)
		}(i, b)
	}
	wg.Wait()
	return reps
}

// pointBatches slices the scattered workspace into one shardBatch per
// non-empty shard. withVals selects whether the permuted vals ride along.
// Mutating kinds draw one cluster-wide commit sequence number, shared by
// every shard's sub-batch (see Cluster.mutSeq).
func (c *Cluster[K, V]) pointBatches(kind batchKind, withVals bool) []*shardBatch[K, V] {
	ws := &c.ws
	ns := len(ws.counts)
	var seq int64
	if kind.mutates() {
		c.mutSeq++
		seq = c.mutSeq
	}
	batches := make([]*shardBatch[K, V], ns)
	for s := 0; s < ns; s++ {
		if ws.counts[s] == 0 {
			continue
		}
		lo, hi := ws.starts[s], ws.starts[s]+ws.counts[s]
		b := &shardBatch[K, V]{kind: kind, seq: seq, keys: ws.keys[lo:hi]}
		if withVals {
			b.vals = ws.vals[lo:hi]
		}
		batches[s] = b
	}
	return batches
}

// finish assembles the cluster Stats from per-shard replies.
func (c *Cluster[K, V]) finish(batch int, reps []shardReply[K, V]) Stats {
	st := Stats{Batch: batch, Shards: make([]core.BatchStats, len(reps))}
	for i := range reps {
		st.Shards[i] = reps[i].st
		st.Recovered += reps[i].recovered
	}
	return st
}

// TryGet looks every key up, scattering by shard. res[i] corresponds to
// keys[i]. errs is nil when every shard served; otherwise errs[i] is nil
// for served keys and a typed error (ErrShardDown, ...) for keys owned by
// a failed shard — the degraded-mode surface: a down shard fails its own
// keys, never the whole batch.
func (c *Cluster[K, V]) TryGet(keys []K) (res []core.GetResult[V], errs []error, st Stats, err error) {
	if err := c.begin(); err != nil {
		return nil, nil, Stats{}, err
	}
	defer c.end()
	c.scatter(keys, nil)
	reps := c.runShards(c.pointBatches(opGet, false))
	res = make([]core.GetResult[V], len(keys))
	errs = c.gatherPoint(len(keys), reps, func(j, i, s int) {
		res[i] = reps[s].gets[j]
	})
	return res, errs, c.finish(len(keys), reps), nil
}

// TryUpsert inserts or overwrites every pair. res[i] reports whether
// keys[i] was newly inserted. Error surface as TryGet.
func (c *Cluster[K, V]) TryUpsert(keys []K, vals []V) (res []bool, errs []error, st Stats, err error) {
	if len(keys) != len(vals) {
		return nil, nil, Stats{}, fmt.Errorf("%w: Upsert keys/vals length mismatch (%d vs %d)",
			core.ErrBadBatch, len(keys), len(vals))
	}
	if err := c.begin(); err != nil {
		return nil, nil, Stats{}, err
	}
	defer c.end()
	c.scatter(keys, vals)
	reps := c.runShards(c.pointBatches(opUpsert, true))
	res = make([]bool, len(keys))
	errs = c.gatherPoint(len(keys), reps, func(j, i, s int) {
		res[i] = reps[s].bools[j]
	})
	return res, errs, c.finish(len(keys), reps), nil
}

// TryDelete removes every key. res[i] reports whether keys[i] was present.
// Error surface as TryGet.
func (c *Cluster[K, V]) TryDelete(keys []K) (res []bool, errs []error, st Stats, err error) {
	if err := c.begin(); err != nil {
		return nil, nil, Stats{}, err
	}
	defer c.end()
	c.scatter(keys, nil)
	reps := c.runShards(c.pointBatches(opDelete, false))
	res = make([]bool, len(keys))
	errs = c.gatherPoint(len(keys), reps, func(j, i, s int) {
		res[i] = reps[s].bools[j]
	})
	return res, errs, c.finish(len(keys), reps), nil
}

// gatherPoint walks the scattered order permutation and invokes set(j, i, s)
// for each position j of shard s holding submission index i, building the
// per-key error slice along the way (nil when no shard failed).
func (c *Cluster[K, V]) gatherPoint(n int, reps []shardReply[K, V], set func(j, i, s int)) []error {
	ws := &c.ws
	var errs []error
	anyErr := false
	for _, rep := range reps {
		if rep.err != nil {
			anyErr = true
			break
		}
	}
	if anyErr {
		errs = make([]error, n)
	}
	for s := range ws.counts {
		lo, cnt := ws.starts[s], ws.counts[s]
		if cnt == 0 {
			continue
		}
		if reps[s].err != nil {
			for j := 0; j < cnt; j++ {
				errs[ws.order[lo+j]] = reps[s].err
			}
			continue
		}
		for j := 0; j < cnt; j++ {
			set(j, ws.order[lo+j], s)
		}
	}
	return errs
}

// TrySuccessor finds, for each key, the smallest key ≥ it anywhere in the
// cluster. Keys are hash-routed, so every shard may hold the answer: the
// query broadcasts to all shards and gathers by minimum found key. If any
// shard is down the whole query is unanswerable — every errs[i] carries
// that shard's error and res is zero.
func (c *Cluster[K, V]) TrySuccessor(keys []K) (res []core.SearchResult[K, V], errs []error, st Stats, err error) {
	if err := c.begin(); err != nil {
		return nil, nil, Stats{}, err
	}
	defer c.end()
	v := c.view.load()
	batches := make([]*shardBatch[K, V], len(v.shards))
	for s := range v.shards {
		if v.owned[s] == 0 {
			continue // retired: owns no keys, cannot hold any answer
		}
		batches[s] = &shardBatch[K, V]{kind: opSucc, keys: keys}
	}
	reps := c.runShards(batches)
	res = make([]core.SearchResult[K, V], len(keys))
	if errs = c.broadcastErrs(len(keys), reps); errs == nil {
		for i := range keys {
			best := core.SearchResult[K, V]{}
			for s := range reps {
				if reps[s].succs == nil {
					continue // retired shard, skipped above
				}
				r := reps[s].succs[i]
				if r.Found && (!best.Found || r.Key < best.Key) {
					best = r
				}
			}
			res[i] = best
		}
	}
	return res, errs, c.finish(len(keys), reps), nil
}

// broadcastErrs builds the all-or-nothing error surface of broadcast
// queries: nil when every shard answered, else every position carries the
// first failed shard's error.
func (c *Cluster[K, V]) broadcastErrs(n int, reps []shardReply[K, V]) []error {
	for s := range reps {
		if reps[s].err != nil {
			errs := make([]error, n)
			for i := range errs {
				errs[i] = reps[s].err
			}
			return errs
		}
	}
	return nil
}

// TryRangeOperation executes a batch of range operations cluster-wide.
// Ranges span shards (routing is by hash, not by interval), so each op
// broadcasts to every shard and the per-shard partials combine exactly:
// counts sum, pairs merge ascending, reductions fold (Op.Init must be the
// identity element, as core documents), transforms apply shard-locally.
// Error surface as TrySuccessor: any down shard fails the whole batch's
// results with per-op typed errors.
func (c *Cluster[K, V]) TryRangeOperation(ops []core.RangeOp[K, V]) (res []core.RangeResult[K, V], errs []error, st Stats, err error) {
	if err := c.begin(); err != nil {
		return nil, nil, Stats{}, err
	}
	defer c.end()
	v := c.view.load()
	c.mutSeq++ // the batch may carry transforms; one commit seq covers it
	batches := make([]*shardBatch[K, V], len(v.shards))
	for s := range v.shards {
		if v.owned[s] == 0 {
			continue // retired: owns no keys, nothing to scan or transform
		}
		batches[s] = &shardBatch[K, V]{kind: opRange, seq: c.mutSeq, rops: ops}
	}
	reps := c.runShards(batches)
	res = make([]core.RangeResult[K, V], len(ops))
	if errs = c.broadcastErrs(len(ops), reps); errs == nil {
		for i := range ops {
			res[i] = c.mergeRange(ops[i], reps, i)
		}
	}
	return res, errs, c.finish(len(ops), reps), nil
}

// mergeRange combines one op's per-shard partial results.
func (c *Cluster[K, V]) mergeRange(op core.RangeOp[K, V], reps []shardReply[K, V], i int) core.RangeResult[K, V] {
	out := core.RangeResult[K, V]{}
	if op.Kind == core.RangeReduce {
		out.Reduced = op.Init
	}
	total := 0
	for s := range reps {
		if reps[s].ranges == nil {
			continue
		}
		total += len(reps[s].ranges[i].Pairs)
	}
	if total > 0 {
		out.Pairs = make([]core.RangePair[K, V], 0, total)
	}
	for s := range reps {
		if reps[s].ranges == nil {
			continue // retired shard, skipped by the broadcast
		}
		r := reps[s].ranges[i]
		out.Count += r.Count
		out.Pairs = append(out.Pairs, r.Pairs...)
		if op.Kind == core.RangeReduce {
			out.Reduced = op.Reduce(out.Reduced, r.Reduced)
		}
	}
	if len(out.Pairs) > 1 {
		// Per-shard slices arrive individually sorted; a comparison sort
		// over the concatenation is an adequate merge at reply sizes and
		// keeps this dependency-free.
		sort.Slice(out.Pairs, func(a, b int) bool { return out.Pairs[a].Key < out.Pairs[b].Key })
	}
	return out
}
