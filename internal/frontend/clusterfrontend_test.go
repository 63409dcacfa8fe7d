package frontend

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimgo/internal/cluster"
	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/trace"
)

// newTestCluster builds a small cluster with the test defaults; opts mutate
// the Config before construction.
func newTestCluster(t *testing.T, shards int, opts ...func(*cluster.Config)) *cluster.Cluster[uint64, int64] {
	t.Helper()
	cfg := cluster.Config{
		Shards: shards,
		Slots:  64,
		Seed:   0xC10C,
		Shard:  core.Config{P: 4},
	}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := cluster.New[uint64, int64](cfg, core.Uint64Hash)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// stoppedClusterFrontend returns a ClusterFrontend whose collector has
// exited, so tests can drive flush deterministically with hand-built
// batches.
func stoppedClusterFrontend(t *testing.T, c *cluster.Cluster[uint64, int64], cfg ClusterConfig) *ClusterFrontend[uint64, int64] {
	t.Helper()
	f := NewClusterFrontend(c, cfg)
	f.Close()
	return f
}

// flipPolicy alternates between splitting the slot-heaviest shard and
// merging the two slot-lightest, one action per window — an always-hungry
// policy that keeps migrations flowing under any traffic, so tests exercise
// the control loop without depending on load thresholds. Deterministic
// given the same window sequence.
type flipPolicy struct{ n int }

func (p *flipPolicy) Propose(loads []cluster.ShardLoad) []cluster.RebalanceAction {
	active := make([]cluster.ShardLoad, 0, len(loads))
	for _, l := range loads {
		if l.State == cluster.ShardRunning && l.Slots > 0 {
			active = append(active, l)
		}
	}
	sort.Slice(active, func(i, j int) bool {
		if active[i].Slots != active[j].Slots {
			return active[i].Slots > active[j].Slots
		}
		return active[i].Shard < active[j].Shard
	})
	p.n++
	if p.n%2 == 1 || len(active) < 2 {
		for _, l := range active {
			if l.Slots >= 2 {
				return []cluster.RebalanceAction{{Kind: cluster.ActionSplit, Src: l.Shard}}
			}
		}
		return nil
	}
	a, b := active[len(active)-1], active[len(active)-2]
	return []cluster.RebalanceAction{{Kind: cluster.ActionMerge, Dst: b.Shard, Src: a.Shard}}
}

// TestClusterFlushWriteCoalescing: the cluster flush preserves the exact
// write-coalescing replies of the single-Map flush — conflicting writes
// coalesce to the final one per key, every superseded op gets its replayed
// reply, reads see the post-write state — with the ops scattered across
// shards.
func TestClusterFlushWriteCoalescing(t *testing.T) {
	c := newTestCluster(t, 3)
	if _, errs, _, err := c.TryUpsert([]uint64{200}, []int64{5}); err != nil || errs != nil {
		t.Fatalf("seed: %v %v", errs, err)
	}
	f := stoppedClusterFrontend(t, c, ClusterConfig{})

	u1, u2, d1 := fut(opUpsert, 100, 1), fut(opUpsert, 100, 2), fut(opDelete, 100, 0)
	d2, u3 := fut(opDelete, 200, 0), fut(opUpsert, 200, 7)
	g1, g2 := fut(opGet, 100, 0), fut(opGet, 200, 0)
	s1 := fut(opSucc, 0, 0)
	f.flush([]*future[uint64, int64]{u1, d2, u2, u3, d1, g1, g2, s1})

	if ins, _, _ := reap(t, u1); !ins {
		t.Error("first upsert of absent key: inserted = false, want true")
	}
	if ins, _, _ := reap(t, u2); ins {
		t.Error("second upsert of now-present key: inserted = true, want false")
	}
	if found, _, _ := reap(t, d1); !found {
		t.Error("delete of upserted key: found = false, want true")
	}
	if found, _, _ := reap(t, d2); !found {
		t.Error("delete of pre-existing key: found = false, want true")
	}
	if ins, _, _ := reap(t, u3); !ins {
		t.Error("upsert after same-flush delete: inserted = false, want true")
	}
	if found, _, _ := reap(t, g1); found {
		t.Error("get of net-deleted key: found = true, want false")
	}
	if found, _, v := reap(t, g2); !found || v != 7 {
		t.Errorf("get of net-upserted key = (%v, %d), want (true, 7)", found, v)
	}
	// The broadcast Successor sees the flush's writes: smallest key ≥ 0 is
	// the net-upserted 200 (100 was net-deleted).
	if found, k, v := reap(t, s1); !found || k != 200 || v != 7 {
		t.Errorf("Successor(0) = (%v, %d, %d), want (true, 200, 7)", found, k, v)
	}

	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	st := f.Stats()
	// 8 ops; submitted = 2 final writes + 2 gets + 1 successor.
	if st.Ops != 8 || st.Submitted != 5 || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want Ops 8 Submitted 5 Flushes 1", st)
	}
}

// TestClusterFrontendBasic: single-client round trip through the live
// collector over a multi-shard cluster.
func TestClusterFrontendBasic(t *testing.T) {
	c := newTestCluster(t, 2)
	f := NewClusterFrontend(c, ClusterConfig{})
	defer f.Close()

	if ins, err := f.Upsert(42, 420); err != nil || !ins {
		t.Fatalf("Upsert = (%v, %v), want (true, nil)", ins, err)
	}
	if res, err := f.Get(42); err != nil || !res.Found || res.Value != 420 {
		t.Fatalf("Get = (%+v, %v)", res, err)
	}
	if res, err := f.Successor(40); err != nil || !res.Found || res.Key != 42 {
		t.Fatalf("Successor = (%+v, %v)", res, err)
	}
	if found, err := f.Delete(42); err != nil || !found {
		t.Fatalf("Delete = (%v, %v), want (true, nil)", found, err)
	}
	if res, err := f.Get(42); err != nil || res.Found {
		t.Fatalf("Get after delete = (%+v, %v)", res, err)
	}
}

// TestClusterFrontendConcurrentOracle: the per-client oracle workload of
// TestFrontendConcurrentOracle over a sharded cluster — same pointAPI, same
// exactness bar, the scatter/gather must not perturb a single reply.
func TestClusterFrontendConcurrentOracle(t *testing.T) {
	for _, cfg := range []ClusterConfig{{}, {MaxBatch: 64}, {MaxWait: 200 * time.Microsecond}} {
		c := newTestCluster(t, 3)
		f := NewClusterFrontend(c, cfg)
		var wg sync.WaitGroup
		clients, ops := 16, 250
		if testing.Short() {
			clients, ops = 4, 60
		}
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				shardClient(t, f, cl, ops)
			}(cl)
		}
		wg.Wait()
		st := f.Stats()
		if err := f.Close(); err != nil {
			t.Fatalf("cfg %+v: Close: %v", cfg, err)
		}
		if st.Ops == 0 || st.Flushes == 0 {
			t.Fatalf("cfg %+v: collector saw no traffic: %+v", cfg, st)
		}
	}
}

// TestClusterFrontendCloseDeterministic: the Close error contract with the
// sampler goroutine in play — exactly one nil among racing Closes, every
// other call core.ErrClosed, no hang waiting on the rebalance loop.
func TestClusterFrontendCloseDeterministic(t *testing.T) {
	c := newTestCluster(t, 2)
	f := NewClusterFrontend(c, ClusterConfig{RebalanceEvery: time.Millisecond})
	if err := f.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}

	for trial := 0; trial < 10; trial++ {
		c2 := newTestCluster(t, 2, func(cfg *cluster.Config) { cfg.Seed = 0xC10C + uint64(trial) })
		f2 := NewClusterFrontend(c2, ClusterConfig{
			RebalanceEvery: 100 * time.Microsecond,
			Policy:         &flipPolicy{},
		})
		var ops sync.WaitGroup
		for g := 0; g < 8; g++ {
			ops.Add(1)
			go func(g int) {
				defer ops.Done()
				for i := 0; i < 50; i++ {
					if _, err := f2.Upsert(uint64(g*100+i), int64(i)); err != nil {
						if !errors.Is(err, core.ErrClosed) {
							t.Errorf("Upsert: %v, want ErrClosed", err)
						}
						return
					}
				}
			}(g)
		}
		var nils int32
		var closers sync.WaitGroup
		for g := 0; g < 8; g++ {
			closers.Add(1)
			go func() {
				defer closers.Done()
				switch err := f2.Close(); {
				case err == nil:
					atomic.AddInt32(&nils, 1)
				case !errors.Is(err, core.ErrClosed):
					t.Errorf("Close: %v, want nil or ErrClosed", err)
				}
			}()
		}
		closers.Wait()
		ops.Wait()
		if nils != 1 {
			t.Fatalf("trial %d: %d Close calls returned nil, want exactly 1", trial, nils)
		}
		if _, err := f2.Get(1); !errors.Is(err, core.ErrClosed) {
			t.Fatalf("trial %d: Get after Close: %v", trial, err)
		}
	}
}

// TestClusterFrontendRebalanceLoop: with RebalanceEvery set, the control
// loop consumes DeltaLoads windows, runs the policy's migrations under live
// client traffic, publishes new routing epochs, and records it all in Stats
// and the trace stream — while every client reply stays oracle-exact.
func TestClusterFrontendRebalanceLoop(t *testing.T) {
	c := newTestCluster(t, 2)
	prof := trace.NewProfile()
	f := NewClusterFrontend(c, ClusterConfig{
		MaxBatch:       128,
		RebalanceEvery: 200 * time.Microsecond,
		Policy:         &flipPolicy{},
		Trace:          prof,
	})
	var wg sync.WaitGroup
	clients, ops := 8, 300
	if testing.Short() {
		clients, ops = 4, 80
	}
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			shardClient(t, f, cl, ops)
		}(cl)
	}
	wg.Wait()
	// Keep the frontend open until the loop has demonstrably published at
	// least one migration (client traffic may finish within a tick or two).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Stats()
		if st.Windows > 0 && st.Published > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance loop never published: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	st := f.Stats()
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st = f.Stats()
	if c.Epoch() == 0 {
		t.Fatalf("routing epoch never advanced; stats %+v", st)
	}
	if st.Proposed < st.Published {
		t.Fatalf("Proposed %d < Published %d", st.Proposed, st.Published)
	}
	rt := prof.Rebalances()
	if rt.Windows != st.Windows || rt.Proposed != st.Proposed ||
		rt.Published != st.Published || rt.Transients != st.Transients {
		t.Fatalf("trace totals %+v disagree with stats %+v", rt, st)
	}
	if rt.Epoch == 0 {
		t.Fatalf("trace totals missed the epoch: %+v", rt)
	}
	// The frontend is closed: the cluster is free for a direct audit.
	if _, errs, _, err := c.TryGet([]uint64{1}); err != nil || errs != nil {
		t.Fatalf("cluster unusable after frontend Close: %v %v", errs, err)
	}
}

// TestClusterFrontendDwellWithRebalanceLoop: with MaxWait and
// RebalanceEvery both set, sampler windows wake the collector many times
// during one dwell. A lone op must still complete, no earlier than its
// dwell, and the windows must still reach the control loop.
func TestClusterFrontendDwellWithRebalanceLoop(t *testing.T) {
	c := newTestCluster(t, 2)
	const dwell = 20 * time.Millisecond
	f := NewClusterFrontend(c, ClusterConfig{
		MaxWait:        dwell,
		RebalanceEvery: 500 * time.Microsecond,
	})
	start := time.Now()
	loneOpCompletes(t, f)
	if el := time.Since(start); el < dwell {
		t.Errorf("lone op completed after %v, before its %v dwell", el, dwell)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := f.Stats(); st.Windows == 0 {
		t.Fatalf("control loop never consumed a window: %+v", st)
	}
}

// TestClusterFrontendFlushTrace: a Profile installed as the frontend's
// sink receives FlushStat events whose totals agree with the collector's
// own Stats.
func TestClusterFrontendFlushTrace(t *testing.T) {
	c := newTestCluster(t, 2)
	prof := trace.NewProfile()
	f := NewClusterFrontend(c, ClusterConfig{Trace: prof})
	var wg sync.WaitGroup
	for cl := 0; cl < 8; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			shardClient(t, f, cl, 100)
		}(cl)
	}
	wg.Wait()
	// A flush's counts land after its replies; Close drains the collector,
	// after which Stats is exact.
	f.Close()
	st := f.Stats()
	col := prof.Collector()
	if col.Flushes != st.Flushes || col.Ops != st.Ops || col.Submitted != st.Submitted {
		t.Fatalf("profile collector %+v disagrees with frontend stats %+v", col, st)
	}
}

// TestClusterFrontendDegraded: ops routed to a permanently down shard fail
// per key with cluster.ErrShardDown — including every op of a superseded
// write chain whose final write landed there — while keys on healthy shards
// keep serving exactly, and Successor (an all-shard broadcast) fails whole.
func TestClusterFrontendDegraded(t *testing.T) {
	c := newTestCluster(t, 3)
	const victim = 1
	if err := c.StopShard(victim); err != nil {
		t.Fatalf("StopShard: %v", err)
	}
	// Find keys on the dead shard and on a live shard.
	var deadKey, liveKey uint64
	var haveDead, haveLive bool
	for k := uint64(0); !(haveDead && haveLive); k++ {
		if c.ShardFor(k) == victim {
			if !haveDead {
				deadKey, haveDead = k, true
			}
		} else if !haveLive {
			liveKey, haveLive = k, true
		}
	}
	f := NewClusterFrontend(c, ClusterConfig{})
	defer f.Close()

	if ins, err := f.Upsert(liveKey, 7); err != nil || !ins {
		t.Fatalf("live Upsert = (%v, %v)", ins, err)
	}
	if _, err := f.Upsert(deadKey, 1); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("dead Upsert: err = %v, want ErrShardDown", err)
	}
	if _, err := f.Get(deadKey); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("dead Get: err = %v, want ErrShardDown", err)
	}
	if res, err := f.Get(liveKey); err != nil || !res.Found || res.Value != 7 {
		t.Fatalf("live Get = (%+v, %v)", res, err)
	}
	if _, err := f.Successor(0); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("Successor with a down shard: err = %v, want ErrShardDown", err)
	}

	// A whole chain on the dead shard fails: drive a flush by hand so two
	// writes to the same dead key land in one batch.
	fs := stoppedClusterFrontend(t, c, ClusterConfig{})
	w1, w2 := fut(opUpsert, deadKey, 1), fut(opDelete, deadKey, 0)
	lv := fut(opUpsert, liveKey, 9)
	fs.flush([]*future[uint64, int64]{w1, w2, lv})
	for _, fu := range []*future[uint64, int64]{w1, w2} {
		select {
		case <-fu.ready:
		default:
			t.Fatalf("chain future (kind %d) never answered", fu.kind)
		}
		if !errors.Is(fu.err, cluster.ErrShardDown) {
			t.Fatalf("chain future err = %v, want ErrShardDown", fu.err)
		}
	}
	if ins, _, _ := reap(t, lv); ins {
		t.Fatal("live upsert in degraded flush: inserted = true, want false (already present)")
	}
	if st := fs.Stats(); st.Errors != 2 {
		t.Fatalf("degraded flush Errors = %d, want 2", st.Errors)
	}
}

// TestClusterFrontendChaosSoak is the tentpole acceptance gate: the
// concurrent-oracle workload over a faulted multi-shard cluster with the
// rebalance control loop migrating slots the whole time. Cases cross every
// built-in fault plan with permanent shard kills (recovery unbounded, so
// killed machines roll forward through their journals — mid-migration kills
// included). Every client reply must stay bit-identical to its sequential
// oracle across every cutover, and the loop itself must make progress
// (windows consumed; epochs published under at least the fault-free plans).
// Skipped with -short.
func TestClusterFrontendChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("clusterfrontend chaos soak skipped in -short mode")
	}
	const faultSeed = 0xFA17ED
	const nShards = 3
	mkPlans := func(mk func(int) core.FaultPlan) []core.FaultPlan {
		plans := make([]core.FaultPlan, nShards)
		for i := range plans {
			plans[i] = mk(i)
		}
		return plans
	}
	cases := []struct {
		name string
		mk   func(int) core.FaultPlan
		kill bool
		// sizeRule keeps the default CompactEvery (size-triggered
		// checkpoints) instead of the count rule's 16.
		sizeRule bool
	}{
		{"none", func(int) core.FaultPlan { return nil }, false, false},
		{"none+kill", func(int) core.FaultPlan { return nil }, true, false},
		{"drop", func(i int) core.FaultPlan { return pim.DropPlan(faultSeed+uint64(i), 800) }, false, false},
		{"duplicate", func(i int) core.FaultPlan { return pim.DupPlan(faultSeed+uint64(i), 800) }, false, false},
		{"delay", func(i int) core.FaultPlan { return pim.DelayPlan(faultSeed+uint64(i), 800, 3) }, false, false},
		{"stall", func(i int) core.FaultPlan { return pim.StallPlan(faultSeed+uint64(i), 1500, 4) }, false, false},
		{"crash", func(i int) core.FaultPlan { return pim.CrashPlan(faultSeed+uint64(i), 400, 2) }, false, false},
		{"chaos+kill", func(i int) core.FaultPlan { return pim.ChaosPlan(faultSeed + uint64(i)) }, true, false},
		{"chaos+kill+sizerule", func(i int) core.FaultPlan { return pim.ChaosPlan(faultSeed + uint64(i)) }, true, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			plans := mkPlans(tc.mk)
			if tc.kill {
				// One shard dies early, one mid-soak — the second lands
				// inside the migration churn on this schedule.
				plans[1] = pim.KillPlan(40, plans[1])
				plans[2] = pim.KillPlan(600, plans[2])
			}
			c := newTestCluster(t, nShards, func(cfg *cluster.Config) {
				cfg.Seed = 0xC10C ^ uint64(len(tc.name))
				cfg.Faults = plans
				// Unbounded recovery: kills roll forward through the
				// journal, so replies stay exact and migrations retry
				// through machine deaths.
				cfg.MaxRecoveries = -1
				if !tc.sizeRule {
					cfg.CompactEvery = 16
				}
			})
			prof := trace.NewProfile()
			f := NewClusterFrontend(c, ClusterConfig{
				MaxBatch:       128,
				RebalanceEvery: 300 * time.Microsecond,
				Policy:         &flipPolicy{},
				Trace:          prof,
			})
			var wg sync.WaitGroup
			const clients, ops = 16, 250
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					shardClient(t, f, cl, ops)
				}(cl)
			}
			wg.Wait()
			// Let the loop consume at least one window before closing.
			deadline := time.Now().Add(10 * time.Second)
			for f.Stats().Windows == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			st := f.Stats()
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st = f.Stats()
			if st.Windows == 0 {
				t.Fatalf("control loop never consumed a window: %+v", st)
			}
			if tc.kill {
				killed := int64(0)
				for s := 0; s < nShards; s++ {
					killed += c.ShardStats(s).Kills
				}
				if killed == 0 {
					t.Fatalf("kill plans never fired")
				}
			}
			// Fault plans must actually have fired (summed across shards).
			if tc.name != "none" && tc.name != "none+kill" {
				var agg core.FaultStats
				for s := 0; s < nShards; s++ {
					fs := c.ShardStats(s).Faults
					agg.SendsDropped += fs.SendsDropped
					agg.SendsDuplicated += fs.SendsDuplicated
					agg.SendsDelayed += fs.SendsDelayed
					agg.StalledModuleRounds += fs.StalledModuleRounds
					agg.CrashedModuleRounds += fs.CrashedModuleRounds
				}
				if agg.SendsDropped+agg.SendsDuplicated+agg.SendsDelayed+
					agg.StalledModuleRounds+agg.CrashedModuleRounds == 0 {
					t.Fatalf("plan %s never fired under frontend traffic", tc.name)
				}
			}
			// The cluster survives the frontend: a direct batch still serves.
			if _, _, _, err := c.TryGet([]uint64{1}); err != nil {
				t.Fatalf("cluster unusable after soak: %v", err)
			}
		})
	}
}

// TestClusterFrontendSteadyStateAllocs: the client-facing enqueue/reply
// path reuses pooled futures — a warmed single-client op allocates nothing
// on the caller side. (The cluster's internal scatter/gather allocates per
// flush; that cost is the collector's, amortized over the batch, and is not
// measured here.)
func TestClusterFrontendSteadyStateAllocs(t *testing.T) {
	c := newTestCluster(t, 2)
	f := NewClusterFrontend(c, ClusterConfig{})
	defer f.Close()
	for i := 0; i < 100; i++ { // warm the pool and the shard batch buffers
		f.Upsert(uint64(i), int64(i))
		f.Get(uint64(i))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.Get(42); err != nil {
			t.Fatalf("Get: %v", err)
		}
	})
	// The future round-trip itself must not allocate. AllocsPerRun counts
	// process-wide mallocs, so the collector's per-flush scatter/gather
	// slices (O(shards) result/error buffers inside the cluster's Try*
	// calls) land in the measurement — with single-op flushes that fixed
	// per-flush cost is paid per op, the worst case. The bound pins it:
	// amortized over real batches it vanishes, and a pooled-future
	// regression (one chan + future per op under churn) would blow past it.
	if allocs > 16 {
		t.Fatalf("steady-state Get allocates %.1f times per op", allocs)
	}
}
