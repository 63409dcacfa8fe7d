package cluster

import (
	"errors"
	"testing"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
)

// fillCluster drives n deterministic upserts through c and the oracle,
// returning the keys used.
func fillCluster(t *testing.T, c *Cluster[uint64, int64], om *core.Map[uint64, int64], n int, seed uint64) []uint64 {
	t.Helper()
	r := rng.NewXoshiro256(seed)
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = 1 + r.Uint64n(1<<14)
		vals[i] = int64(r.Uint64() >> 1)
	}
	_, errs, _, err := c.TryUpsert(keys, vals)
	if err != nil {
		t.Fatalf("fill TryUpsert: %v", err)
	}
	noErrs(t, errs, "fill Upsert")
	om.Upsert(keys, vals)
	return keys
}

// assertOracleEqual checks the cluster's full contents and a probe workload
// against the oracle, bit for bit.
func assertOracleEqual(t *testing.T, c *Cluster[uint64, int64], om *core.Map[uint64, int64], probe []uint64) {
	t.Helper()
	if c.Len() != om.Len() {
		t.Fatalf("Len: cluster %d, oracle %d", c.Len(), om.Len())
	}
	read := []core.RangeOp[uint64, int64]{{Lo: 0, Hi: ^uint64(0), Kind: core.RangeRead}}
	got, errs, _, err := c.TryRangeOperation(read)
	if err != nil {
		t.Fatalf("full read: %v", err)
	}
	noErrs(t, errs, "full read")
	want, _ := om.RangeAuto(read)
	if len(got[0].Pairs) != len(want[0].Pairs) {
		t.Fatalf("full read %d pairs, oracle %d", len(got[0].Pairs), len(want[0].Pairs))
	}
	for j := range got[0].Pairs {
		if got[0].Pairs[j] != want[0].Pairs[j] {
			t.Fatalf("pair %d = %+v, oracle %+v", j, got[0].Pairs[j], want[0].Pairs[j])
		}
	}
	if len(probe) == 0 {
		return
	}
	gg, errs, _, err := c.TryGet(probe)
	if err != nil {
		t.Fatalf("probe TryGet: %v", err)
	}
	noErrs(t, errs, "probe Get")
	wg, _ := om.Get(probe)
	for i := range probe {
		if gg[i] != wg[i] {
			t.Fatalf("Get(%d)=%+v, oracle %+v", probe[i], gg[i], wg[i])
		}
	}
	ss, errs, _, err := c.TrySuccessor(probe)
	if err != nil {
		t.Fatalf("probe TrySuccessor: %v", err)
	}
	noErrs(t, errs, "probe Successor")
	ws, _ := om.Successor(probe)
	for i := range probe {
		if ss[i] != ws[i] {
			t.Fatalf("Succ(%d)=%+v, oracle %+v", probe[i], ss[i], ws[i])
		}
	}
}

// TestSplitShardOracleEquivalence splits a shard live and verifies the
// epoch bump, routing-table consistency, report accounting, and that every
// reply stays bit-identical to the single-Map oracle.
func TestSplitShardOracleEquivalence(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.Slots = 24 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 800, 0x5EED_1)

	const src = 1
	srcLen := c.ShardStats(src).Len
	// Record routing before: the key's slot must never move, only its owner.
	slotBefore := make([]int, len(keys))
	homeBefore := make([]int, len(keys))
	for i, k := range keys {
		slotBefore[i] = c.SlotOf(k)
		homeBefore[i] = c.ShardFor(k)
	}

	tgt, rep, err := c.SplitShard(src, nil)
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if tgt != 3 {
		t.Fatalf("SplitShard target = %d, want 3 (appended)", tgt)
	}
	if c.Epoch() != 1 || rep.Epoch != 1 {
		t.Fatalf("epoch = %d (report %d), want 1", c.Epoch(), rep.Epoch)
	}
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", c.Shards())
	}
	if rep.SlotsMoved == 0 || rep.KeysCopied != srcLen {
		t.Fatalf("report moved %d slots, copied %d keys (src held %d)", rep.SlotsMoved, rep.KeysCopied, srcLen)
	}
	if len(rep.Added) != 1 || rep.Added[0] != tgt || len(rep.Retired) != 0 {
		t.Fatalf("report Added=%v Retired=%v, want [3] []", rep.Added, rep.Retired)
	}
	if rep.Stats.Rounds == 0 {
		t.Fatal("migration of a populated shard charged zero rounds")
	}

	// Routing consistency: slots are immutable; only src's keys may move,
	// and only to tgt. ShardOfSlot must agree with ShardFor.
	tgtSlots := 0
	for j := 0; j < c.Slots(); j++ {
		if c.ShardOfSlot(j) == tgt {
			tgtSlots++
		}
	}
	if tgtSlots != rep.SlotsMoved {
		t.Fatalf("tgt owns %d slots, report moved %d", tgtSlots, rep.SlotsMoved)
	}
	for i, k := range keys {
		if c.SlotOf(k) != slotBefore[i] {
			t.Fatalf("SlotOf(%d) moved %d -> %d", k, slotBefore[i], c.SlotOf(k))
		}
		h := c.ShardFor(k)
		if h != c.ShardOfSlot(c.SlotOf(k)) {
			t.Fatalf("ShardFor(%d)=%d disagrees with ShardOfSlot", k, h)
		}
		if homeBefore[i] == src {
			if h != src && h != tgt {
				t.Fatalf("key %d moved from shard %d to %d (not the split target)", k, src, h)
			}
		} else if h != homeBefore[i] {
			t.Fatalf("key %d on unaffected shard moved %d -> %d", k, homeBefore[i], h)
		}
	}

	// Migration accounting landed on both members.
	for _, id := range []int{src, tgt} {
		st := c.ShardStats(id)
		if st.Migrations != 1 {
			t.Errorf("shard %d: Migrations = %d, want 1", id, st.Migrations)
		}
		if st.State != ShardRunning {
			t.Errorf("shard %d finished %v", id, st.State)
		}
	}
	if c.ShardStats(tgt).Migration.Rounds == 0 {
		t.Error("split target's Migration account charged zero rounds")
	}

	assertOracleEqual(t, c, om, keys)
}

// TestMergeShardsOracleEquivalence merges a shard away live and verifies
// retirement, conservation, and oracle equivalence.
func TestMergeShardsOracleEquivalence(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.Slots = 24 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 800, 0x5EED_2)

	const dst, src = 0, 2
	wantLen := c.ShardStats(dst).Len + c.ShardStats(src).Len
	rep, err := c.MergeShards(dst, src, nil)
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	if c.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3 (ids are stable; merges retire in place)", c.Shards())
	}
	if len(rep.Retired) != 1 || rep.Retired[0] != src || len(rep.Added) != 0 {
		t.Fatalf("report Added=%v Retired=%v, want [] [2]", rep.Added, rep.Retired)
	}
	st := c.ShardStats(src)
	if st.State != ShardRetired || st.Len != 0 || st.JournalBase != 0 || st.JournalBatches != 0 {
		t.Fatalf("retired shard stats %+v: want retired with no state", st)
	}
	if got := c.ShardStats(dst).Len; got != wantLen {
		t.Fatalf("dst holds %d keys after merge, want %d", got, wantLen)
	}
	for _, k := range keys {
		if c.ShardFor(k) == src {
			t.Fatalf("key %d still routes to retired shard %d", k, src)
		}
	}
	assertOracleEqual(t, c, om, keys)
}

// TestMigrationCarriesLiveTraffic injects point batches and a broadcast
// transform between the freeze and the cutover (via OnPhase): they land in
// the old epoch's journal suffix and must be carried across the cutover
// exactly once — replies and final contents bit-identical to the oracle.
func TestMigrationCarriesLiveTraffic(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 16 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 600, 0x5EED_3)

	r := rng.NewXoshiro256(0xF00D)
	phases := 0
	inject := func(phase string) {
		phases++
		// Mid-migration mutations: an upsert batch overlapping existing keys,
		// a delete batch, and a broadcast transform — all while the copy is
		// in flight, all verified against the oracle immediately.
		b := 40
		ks := make([]uint64, b)
		vs := make([]int64, b)
		for i := range ks {
			ks[i] = 1 + r.Uint64n(1<<14)
			vs[i] = int64(r.Uint64() >> 1)
		}
		got, errs, _, err := c.TryUpsert(ks, vs)
		if err != nil {
			t.Fatalf("phase %s: TryUpsert: %v", phase, err)
		}
		noErrs(t, errs, "phase upsert")
		want, _ := om.Upsert(ks, vs)
		for i := range ks {
			if got[i] != want[i] {
				t.Fatalf("phase %s: Upsert(%d)=%v, oracle %v", phase, ks[i], got[i], want[i])
			}
		}
		dg, errs, _, err := c.TryDelete(ks[:10])
		if err != nil {
			t.Fatalf("phase %s: TryDelete: %v", phase, err)
		}
		noErrs(t, errs, "phase delete")
		dw, _ := om.Delete(ks[:10])
		for i := range ks[:10] {
			if dg[i] != dw[i] {
				t.Fatalf("phase %s: Delete(%d)=%v, oracle %v", phase, ks[i], dg[i], dw[i])
			}
		}
		ops := []core.RangeOp[uint64, int64]{{
			Lo: 1, Hi: 1 << 13, Kind: core.RangeTransform,
			Transform: func(v int64) int64 { return v + 7 },
		}}
		tg, errs, _, err := c.TryRangeOperation(ops)
		if err != nil {
			t.Fatalf("phase %s: TryRangeOperation: %v", phase, err)
		}
		noErrs(t, errs, "phase transform")
		tw, _ := om.RangeAuto(ops)
		if tg[0].Count != tw[0].Count {
			t.Fatalf("phase %s: transform count %d, oracle %d", phase, tg[0].Count, tw[0].Count)
		}
	}

	tgt, rep, err := c.SplitShard(0, &MigrateOpts{OnPhase: inject})
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if phases != 2 {
		t.Fatalf("OnPhase fired %d times, want 2 (copy, catchup)", phases)
	}
	// 6 mutating batches were acked mid-migration; each affected shard
	// journaled its share, and the distinct-batch count must see them.
	if rep.SuffixBatches == 0 {
		t.Fatal("migration carried live traffic but reports zero suffix batches")
	}
	assertOracleEqual(t, c, om, keys)

	// The same works for a merge, shrinking back.
	rep, err = c.MergeShards(0, tgt, &MigrateOpts{OnPhase: inject})
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if phases != 4 || rep.SuffixBatches == 0 {
		t.Fatalf("merge OnPhase fired %d times (want 4), suffix %d", phases, rep.SuffixBatches)
	}
	assertOracleEqual(t, c, om, keys)
}

// TestMigrationErrorSurface exercises every typed rejection of the
// rebalancing entry points.
func TestMigrationErrorSurface(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 8 })

	// Out-of-range and degenerate arguments.
	if _, _, err := c.SplitShard(5, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("SplitShard(5): %v, want ErrBadConfig", err)
	}
	if _, err := c.MergeShards(0, 9, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MergeShards(0,9): %v, want ErrBadConfig", err)
	}
	if _, err := c.MergeShards(1, 1, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MergeShards(1,1): %v, want ErrBadConfig", err)
	}

	// A split needs at least two slots to move one.
	one := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 2 })
	if _, _, err := one.SplitShard(0, nil); !errors.Is(err, ErrShardState) {
		t.Errorf("SplitShard with 1 slot: %v, want ErrShardState", err)
	}

	// The gate is shared with batches: a batch holding it blocks migrations.
	if !c.inBatch.CompareAndSwap(false, true) {
		t.Fatal("batch gate already held")
	}
	if _, _, err := c.SplitShard(0, nil); !errors.Is(err, core.ErrConcurrentBatch) {
		t.Errorf("SplitShard under a held batch gate: %v, want ErrConcurrentBatch", err)
	}
	c.inBatch.Store(false)

	// Migrations are single-flight: a migration launched from inside
	// another's phase callback fails typed with ErrRebalancing.
	var nested error
	_, _, err := c.SplitShard(0, &MigrateOpts{OnPhase: func(phase string) {
		if phase == PhaseCopy {
			_, _, nested = c.SplitShard(1, nil)
		}
	}})
	if err != nil {
		t.Fatalf("outer SplitShard: %v", err)
	}
	if !errors.Is(nested, ErrRebalancing) {
		t.Errorf("nested SplitShard: %v, want ErrRebalancing", nested)
	}

	// Migrating a non-Running shard is refused.
	if err := c.StopShard(1); err != nil {
		t.Fatalf("StopShard: %v", err)
	}
	if _, _, err := c.SplitShard(1, nil); !errors.Is(err, ErrShardState) {
		t.Errorf("SplitShard of down shard: %v, want ErrShardState", err)
	}

	// Closed cluster: typed ErrClosed.
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := c.SplitShard(0, nil); !errors.Is(err, core.ErrClosed) {
		t.Errorf("SplitShard after Close: %v, want ErrClosed", err)
	}
}

// TestRetiredShardSurface pins the post-merge contract: the retired id stays
// on the roster, broadcasts skip it exactly, and every lifecycle transition
// on it fails typed.
func TestRetiredShardSurface(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.Slots = 12 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 500, 0x5EED_4)

	if _, err := c.MergeShards(1, 2, nil); err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	if st := c.ShardStats(2).State; st != ShardRetired {
		t.Fatalf("shard 2 state %v, want retired", st)
	}

	// Broadcasts skip the retired shard and stay exact.
	assertOracleEqual(t, c, om, keys)

	// Lifecycle on a retired shard: typed, never a panic.
	if err := c.StopShard(2); !errors.Is(err, ErrShardState) {
		t.Errorf("StopShard(retired): %v, want ErrShardState", err)
	}
	if err := c.StartShard(2); !errors.Is(err, ErrShardState) {
		t.Errorf("StartShard(retired): %v, want ErrShardState", err)
	}
	if err := c.DrainShard(2); !errors.Is(err, ErrShardState) {
		t.Errorf("DrainShard(retired): %v, want ErrShardState", err)
	}
	// Retirement is terminal: the id cannot re-enter a migration.
	if _, err := c.MergeShards(0, 2, nil); !errors.Is(err, ErrShardState) {
		t.Errorf("MergeShards from retired: %v, want ErrShardState", err)
	}
	if _, _, err := c.SplitShard(2, nil); !errors.Is(err, ErrShardState) {
		t.Errorf("SplitShard of retired: %v, want ErrShardState", err)
	}
	// A later split appends a fresh id rather than reviving 2.
	tgt, _, err := c.SplitShard(0, nil)
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if tgt != 3 {
		t.Fatalf("post-merge split target %d, want 3", tgt)
	}
	assertOracleEqual(t, c, om, keys)
}

// TestMigrationRollback aims a terminal kill plan at the split target's own
// bulk load with recovery disabled: the migration must fail typed, discard
// the new incarnations, and leave the old epoch serving bit-identically.
func TestMigrationRollback(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) {
		cfg.Slots = 16
		cfg.DisableRecovery = true
	})
	om := newOracle(t)
	keys := fillCluster(t, c, om, 600, 0x5EED_5)

	_, rep, err := c.SplitShard(0, &MigrateOpts{TargetFault: pim.KillPlan(2, nil)})
	if err == nil {
		t.Fatal("SplitShard with unrecoverable target kill: expected error")
	}
	if c.Epoch() != 0 || rep.Epoch != 0 {
		t.Fatalf("epoch advanced to %d (report %d) despite rollback", c.Epoch(), rep.Epoch)
	}
	if c.Shards() != 2 {
		t.Fatalf("Shards() = %d after rollback, want 2 (target discarded)", c.Shards())
	}
	for i := 0; i < 2; i++ {
		if st := c.ShardStats(i); st.State != ShardRunning {
			t.Fatalf("shard %d is %v after rollback, want running", i, st.State)
		}
	}
	// The old epoch serves exactly as before, and a clean retry works.
	assertOracleEqual(t, c, om, keys)
	if _, _, err := c.SplitShard(0, nil); err != nil {
		t.Fatalf("retry SplitShard after rollback: %v", err)
	}
	assertOracleEqual(t, c, om, keys)
}

// TestMigrationRetriesThroughKill aims the same kill plan at the target but
// with the default recovery budget: the build strips the plan and retries,
// the migration publishes, and the retries are honestly reported.
func TestMigrationRetriesThroughKill(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 16 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 600, 0x5EED_6)

	tgt, rep, err := c.SplitShard(0, &MigrateOpts{TargetFault: pim.KillPlan(2, nil)})
	if err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("killed bulk load consumed no reported retries")
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	if st := c.ShardStats(tgt); st.State != ShardRunning || st.Migration.Rounds == 0 {
		t.Fatalf("target stats %+v: want running with charged migration rounds", st)
	}
	assertOracleEqual(t, c, om, keys)
}

// TestLoadRatioPolicyPropose unit-tests the built-in hot/cold detector on
// synthetic load samples.
func TestLoadRatioPolicyPropose(t *testing.T) {
	mk := func(id, slots int, w int64) ShardLoad {
		return ShardLoad{Shard: id, State: ShardRunning, Slots: slots, IOTime: w}
	}
	var p LoadRatioPolicy // zero value: SplitAbove 2, MergeBelow 0.25, 1 action

	if got := p.Propose([]ShardLoad{mk(0, 4, 100), mk(1, 4, 100), mk(2, 4, 100)}); got != nil {
		t.Errorf("balanced: proposed %v, want nil", got)
	}
	got := p.Propose([]ShardLoad{mk(0, 4, 1000), mk(1, 4, 100), mk(2, 4, 100), mk(3, 4, 100)})
	if len(got) != 1 || got[0].Kind != ActionSplit || got[0].Src != 0 {
		t.Errorf("hot shard: proposed %v, want [split 0]", got)
	}
	// A hot shard with one slot cannot split.
	if got := p.Propose([]ShardLoad{mk(0, 1, 1000), mk(1, 4, 100), mk(2, 4, 100), mk(3, 4, 100)}); got != nil {
		t.Errorf("unsplittable hot shard: proposed %v, want nil", got)
	}
	// Two cold shards merge, lightest into second-lightest.
	got = p.Propose([]ShardLoad{mk(0, 4, 1000), mk(1, 4, 1000), mk(2, 4, 10), mk(3, 4, 5)})
	if len(got) != 1 || got[0].Kind != ActionMerge || got[0].Src != 3 || got[0].Dst != 2 {
		t.Errorf("cold pair: proposed %v, want [merge 3 -> 2]", got)
	}
	// Retired and down shards are excluded from the sample.
	loads := []ShardLoad{
		mk(0, 4, 1000), mk(1, 4, 100), mk(2, 4, 100), mk(3, 4, 100),
		{Shard: 4, State: ShardRetired}, {Shard: 5, State: ShardDown, Slots: 4, IOTime: 1},
	}
	got = p.Propose(loads)
	if len(got) != 1 || got[0].Kind != ActionSplit || got[0].Src != 0 {
		t.Errorf("with inactive shards: proposed %v, want [split 0]", got)
	}
	// MaxActions caps, heaviest first.
	wide := LoadRatioPolicy{MaxActions: 2}
	got = wide.Propose([]ShardLoad{mk(0, 4, 5000), mk(1, 4, 4000), mk(2, 4, 100), mk(3, 4, 100), mk(4, 4, 100)})
	if len(got) != 2 || got[0].Src != 0 || got[1].Src != 1 {
		t.Errorf("two hot shards: proposed %v, want [split 0, split 1]", got)
	}
}

// TestLoadsAndDeltaLoads checks the load-sampling surface Rebalance feeds
// policies with.
func TestLoadsAndDeltaLoads(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 8 })
	om := newOracle(t)
	fillCluster(t, c, om, 400, 0x5EED_7)

	prev := c.Loads()
	if len(prev) != 2 {
		t.Fatalf("Loads: %d samples, want 2", len(prev))
	}
	slots := 0
	for i, l := range prev {
		if l.Shard != i || l.State != ShardRunning {
			t.Fatalf("load[%d] = %+v", i, l)
		}
		if l.weight() == 0 || l.Batches == 0 {
			t.Fatalf("load[%d] saw traffic but reports zero weight/batches: %+v", i, l)
		}
		slots += l.Slots
	}
	if slots != c.Slots() {
		t.Fatalf("owned slots sum %d, want %d", slots, c.Slots())
	}

	fillCluster(t, c, om, 200, 0x5EED_8)
	cur := c.Loads()
	delta := DeltaLoads(cur, prev)
	for i := range delta {
		if delta[i].Batches != cur[i].Batches-prev[i].Batches {
			t.Fatalf("delta[%d].Batches = %d, want %d", i, delta[i].Batches, cur[i].Batches-prev[i].Batches)
		}
		if delta[i].IOTime < 0 || delta[i].Batches <= 0 {
			t.Fatalf("delta[%d] = %+v: counters must be positive over a traffic window", i, delta[i])
		}
	}
	// A shard absent from prev (a fresh split target) keeps its counters.
	ghost := DeltaLoads([]ShardLoad{{Shard: 9, Batches: 7, IOTime: 3}}, prev)
	if ghost[0].Batches != 7 || ghost[0].IOTime != 3 {
		t.Fatalf("new-shard delta %+v, want counters carried whole", ghost[0])
	}
}

// proposeList is a canned policy for driving Rebalance deterministically.
type proposeList []RebalanceAction

func (p proposeList) Propose([]ShardLoad) []RebalanceAction { return p }

// TestRebalanceDriven runs policy-driven migrations end to end: a canned
// split executes and reports, and the zero LoadRatioPolicy on a balanced
// cluster proposes nothing.
func TestRebalanceDriven(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 8 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 500, 0x5EED_9)

	rr, err := c.Rebalance(proposeList{{Kind: ActionSplit, Src: 0}}, nil)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if len(rr.Actions) != 1 || len(rr.Reports) != 1 || rr.Reports[0].Epoch != 1 {
		t.Fatalf("report %+v: want one split publishing epoch 1", rr)
	}
	if c.Epoch() != 1 || c.Shards() != 3 {
		t.Fatalf("epoch %d shards %d, want 1 and 3", c.Epoch(), c.Shards())
	}
	assertOracleEqual(t, c, om, keys)

	// nil policy selects the zero LoadRatioPolicy; this cluster is balanced,
	// so nothing is proposed and the epoch holds.
	rr, err = c.Rebalance(nil, nil)
	if err != nil {
		t.Fatalf("Rebalance(nil): %v", err)
	}
	if len(rr.Actions) != 0 || c.Epoch() != 1 {
		t.Fatalf("balanced cluster proposed %v (epoch %d)", rr.Actions, c.Epoch())
	}

	// A failing action stops the run and surfaces its error with the
	// completed prefix intact.
	rr, err = c.Rebalance(proposeList{
		{Kind: ActionSplit, Src: 1},
		{Kind: ActionMerge, Src: 9, Dst: 0},
	}, nil)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Rebalance with bad second action: %v, want ErrBadConfig", err)
	}
	if len(rr.Actions) != 2 || rr.Reports[0].Epoch != 2 {
		t.Fatalf("partial report %+v: want first action published epoch 2", rr)
	}
	assertOracleEqual(t, c, om, keys)
}

// TestLoadDeltaEdgeCases pins DeltaLoads' behaviour on the windows a live
// control loop actually produces: empty samples (no shards yet, or a
// sampler racing construction), windows containing retired shards, and
// windows spanning an epoch change (the shard roster differs between the
// two samples).
func TestLoadDeltaEdgeCases(t *testing.T) {
	// Empty windows: nil-safe on both sides.
	if d := DeltaLoads(nil, nil); len(d) != 0 {
		t.Fatalf("DeltaLoads(nil, nil) = %v, want empty", d)
	}
	prev := []ShardLoad{{Shard: 0, Batches: 3, IOTime: 5}}
	if d := DeltaLoads(nil, prev); len(d) != 0 {
		t.Fatalf("DeltaLoads(nil, prev) = %v, want empty", d)
	}
	// No prev: counters carried whole (a loop's very first window).
	if d := DeltaLoads(prev, nil); d[0].Batches != 3 || d[0].IOTime != 5 {
		t.Fatalf("DeltaLoads(cur, nil) = %+v, want counters whole", d[0])
	}
	// An empty window proposes nothing — the policy sees no shards, not a
	// balanced cluster of zero-weight shards.
	if acts := (LoadRatioPolicy{}).Propose(nil); acts != nil {
		t.Fatalf("empty window proposed %v", acts)
	}

	// Retired shard in the window: a merge retires its source; both samples
	// straddling the merge still difference cleanly, the retired shard stays
	// in the window (state/slots point-in-time from cur), and the policy
	// never proposes actions involving it.
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 8 })
	om := newOracle(t)
	fillCluster(t, c, om, 300, 0x5EED_20)
	before := c.Loads()
	if _, err := c.MergeShards(0, 1, nil); err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	fillCluster(t, c, om, 100, 0x5EED_21)
	after := c.Loads()
	window := DeltaLoads(after, before)
	if len(window) != 2 {
		t.Fatalf("window has %d shards, want 2", len(window))
	}
	ret := window[1]
	if ret.State != ShardRetired || ret.Slots != 0 {
		t.Fatalf("retired shard sample = %+v, want ShardRetired with 0 slots", ret)
	}
	if ret.Batches < 0 || ret.IOTime < 0 {
		t.Fatalf("retired shard delta went negative: %+v", ret)
	}
	for _, a := range (LoadRatioPolicy{MergeBelow: 10, SplitAbove: 1.01}).Propose(window) {
		if a.Src == 1 || a.Dst == 1 {
			t.Fatalf("policy proposed retired shard 1: %+v", a)
		}
	}

	// Window spanning an epoch change: prev predates a split, cur follows
	// it. Shards present in both difference by id; the split's fresh target
	// is absent from prev and keeps its counters whole.
	c2 := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 8 })
	fillCluster(t, c2, newOracle(t), 300, 0x5EED_22)
	prev2 := c2.Loads()
	if _, _, err := c2.SplitShard(0, nil); err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	fillCluster(t, c2, newOracle(t), 100, 0x5EED_23)
	cur2 := c2.Loads()
	if len(cur2) != len(prev2)+1 {
		t.Fatalf("post-split Loads has %d shards, want %d", len(cur2), len(prev2)+1)
	}
	w2 := DeltaLoads(cur2, prev2)
	for i := range prev2 {
		if w2[i].Batches != cur2[i].Batches-prev2[i].Batches {
			t.Fatalf("spanning window shard %d: Batches %d, want %d",
				i, w2[i].Batches, cur2[i].Batches-prev2[i].Batches)
		}
	}
	fresh := w2[len(w2)-1]
	if fresh.Shard != 2 || fresh.Batches != cur2[len(cur2)-1].Batches {
		t.Fatalf("fresh split target delta %+v, want counters carried whole", fresh)
	}
	if fresh.Slots == 0 {
		t.Fatalf("fresh split target owns no slots: %+v", fresh)
	}
}

// TestRebalanceFromStaleWindow: RebalanceFrom runs actions planned from a
// window that no longer matches the cluster — the control loop's normal
// hazard — and surfaces the failure as a typed transient the caller drops,
// leaving the cluster serving.
func TestRebalanceFromStaleWindow(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Slots = 8 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 300, 0x5EED_24)

	// Sample, then invalidate the sample: retire shard 1 behind its back.
	window := c.Loads()
	if _, err := c.MergeShards(0, 1, nil); err != nil {
		t.Fatalf("MergeShards: %v", err)
	}

	// The stale window still believes shard 1 is splittable.
	rr, err := c.RebalanceFrom(window, proposeList{{Kind: ActionSplit, Src: 1}}, nil)
	if !errors.Is(err, ErrShardState) {
		t.Fatalf("stale split: err = %v, want ErrShardState", err)
	}
	if len(rr.Actions) != 1 || rr.Reports[0].SlotsMoved != 0 || c.Epoch() != 1 {
		t.Fatalf("stale split report %+v (epoch %d): want the failed action recorded, nothing published",
			rr, c.Epoch())
	}

	// The failure was transient: fresh loads re-propose and succeed.
	rr, err = c.RebalanceFrom(c.Loads(), proposeList{{Kind: ActionSplit, Src: 0}}, nil)
	if err != nil {
		t.Fatalf("fresh split: %v", err)
	}
	if len(rr.Reports) != 1 || rr.Reports[0].SlotsMoved == 0 {
		t.Fatalf("fresh split report %+v: want a published migration", rr)
	}
	assertOracleEqual(t, c, om, keys)
}
