package cluster

import (
	"strings"
	"testing"

	"pimgo/internal/core"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

// replayed sums the core batches and ops prof has seen, bulk loads
// excluded.
func replayed(prof *trace.Profile) (batches, ops int64) {
	for _, bp := range prof.ByOp() {
		if !strings.HasSuffix(bp.Op, "bulkload") {
			batches += bp.Batches
			ops += bp.Ops
		}
	}
	return batches, ops
}

// TestJournalSizeBound pins the default size-triggered checkpoint: after
// every acked mutating batch (fault-free, no migration) each shard's
// journal holds at most as many ops as the shard holds keys. The rule must
// also actually compact, and must not degenerate into a checkpoint per
// batch.
func TestJournalSizeBound(t *testing.T) {
	c := newTestCluster(t, 3)
	om := newOracle(t)
	r := rng.NewXoshiro256(0x5123)
	const keySpace = 1 << 11
	var sawBase, sawLongJournal bool
	for round := 0; round < 400; round++ {
		maxB := 64
		if round%4 != 0 {
			maxB = 2 // mostly tiny batches, as a coalescing frontend sends
		}
		b := 1 + r.Intn(maxB)
		keys := make([]uint64, b)
		for i := range keys {
			keys[i] = 1 + r.Uint64n(keySpace)
		}
		switch k := r.Intn(20); {
		case k == 0:
			lo := 1 + r.Uint64n(keySpace)
			ops := []core.RangeOp[uint64, int64]{{Lo: lo, Hi: lo + keySpace/8, Kind: core.RangeTransform,
				Transform: func(v int64) int64 { return v + 7 }}}
			if _, _, _, err := c.TryRangeOperation(ops); err != nil {
				t.Fatalf("TryRangeOperation: %v", err)
			}
			om.RangeAuto(ops)
		case k < 7:
			if _, _, _, err := c.TryDelete(keys); err != nil {
				t.Fatalf("TryDelete: %v", err)
			}
			om.Delete(keys)
		default:
			vals := make([]int64, b)
			for i := range vals {
				vals[i] = int64(r.Uint64() >> 1)
			}
			if _, _, _, err := c.TryUpsert(keys, vals); err != nil {
				t.Fatalf("TryUpsert: %v", err)
			}
			om.Upsert(keys, vals)
		}
		for s := 0; s < c.Shards(); s++ {
			st := c.ShardStats(s)
			if st.JournalOps > st.Len {
				t.Fatalf("round %d: shard %d journal holds %d ops over %d keys", round, s, st.JournalOps, st.Len)
			}
			sawBase = sawBase || st.JournalBase > 0
			sawLongJournal = sawLongJournal || st.JournalBatches > 8
		}
	}
	if !sawBase {
		t.Error("no shard ever checkpointed")
	}
	if !sawLongJournal {
		t.Error("no journal ever held more than 8 batches: the size rule checkpoints too eagerly")
	}
	if got, want := c.Len(), om.Len(); got != want {
		t.Fatalf("cluster holds %d keys, oracle %d", got, want)
	}
}

// TestReplayFoldBound kills (stops and restarts) a default-config shard
// whose journal holds thousands of single-key batches. The rebuild must fold
// each run of point entries between transforms into at most one upsert and
// one delete batch, replay no more ops than the journal holds (≤ the
// shard's size under the size rule), and land on exactly the committed
// state: every reply afterwards matches the single-Map oracle.
func TestReplayFoldBound(t *testing.T) {
	for _, tc := range []struct {
		name       string
		transforms int
	}{{"points", 0}, {"transforms", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			prof := trace.NewProfile()
			c := newTestCluster(t, 1, func(cfg *Config) {
				cfg.Trace = func(int) trace.Sink { return prof }
			})
			om := newOracle(t)
			const prefill, singles, keySpace = 10000, 5000, 12000
			keys := make([]uint64, prefill)
			vals := make([]int64, prefill)
			for i := range keys {
				keys[i] = uint64(i + 1)
				vals[i] = int64(i)
			}
			if _, _, _, err := c.TryUpsert(keys, vals); err != nil {
				t.Fatalf("prefill: %v", err)
			}
			om.Upsert(keys, vals)
			r := rng.NewXoshiro256(0xF01D)
			every := singles / (tc.transforms + 1)
			for i := 1; i <= singles; i++ {
				k := []uint64{1 + r.Uint64n(keySpace)}
				if r.Intn(5) == 0 {
					if _, _, _, err := c.TryDelete(k); err != nil {
						t.Fatalf("TryDelete: %v", err)
					}
					om.Delete(k)
				} else {
					v := []int64{int64(r.Uint64() >> 1)}
					if _, _, _, err := c.TryUpsert(k, v); err != nil {
						t.Fatalf("TryUpsert: %v", err)
					}
					om.Upsert(k, v)
				}
				if i%every == 0 && i < singles {
					lo := 1 + r.Uint64n(keySpace)
					ops := []core.RangeOp[uint64, int64]{{Lo: lo, Hi: lo + keySpace/4, Kind: core.RangeTransform,
						Transform: func(v int64) int64 { return v*3 + 1 }}}
					if _, _, _, err := c.TryRangeOperation(ops); err != nil {
						t.Fatalf("TryRangeOperation: %v", err)
					}
					om.RangeAuto(ops)
				}
			}
			before := c.ShardStats(0)
			if before.JournalBatches != singles+tc.transforms {
				t.Fatalf("journal holds %d batches, want %d (a checkpoint fired after the prefill)",
					before.JournalBatches, singles+tc.transforms)
			}
			if err := c.StopShard(0); err != nil {
				t.Fatalf("StopShard: %v", err)
			}
			batches0, ops0 := replayed(prof)
			if err := c.StartShard(0); err != nil {
				t.Fatalf("StartShard: %v", err)
			}
			batches1, ops1 := replayed(prof)
			replayBatches, replayOps := int(batches1-batches0), int(ops1-ops0)
			// Each of the transforms+1 point runs replays as ≤ 2 batches.
			if limit := 2*(tc.transforms+1) + tc.transforms; replayBatches > limit {
				t.Errorf("rebuild drove %d replay batches, want ≤ %d", replayBatches, limit)
			}
			if replayOps > before.JournalOps || before.JournalOps > before.Len {
				t.Errorf("rebuild replayed %d ops; journal held %d ops over %d keys", replayOps, before.JournalOps, before.Len)
			}
			if c.Len() != om.Len() {
				t.Fatalf("rebuilt shard holds %d keys, oracle %d", c.Len(), om.Len())
			}
			all := make([]uint64, keySpace+2)
			for i := range all {
				all[i] = uint64(i)
			}
			got, _, _, err := c.TryGet(all)
			if err != nil {
				t.Fatalf("TryGet: %v", err)
			}
			want, _ := om.Get(all)
			for i := range all {
				if got[i] != want[i] {
					t.Fatalf("Get(%d) = %+v after rebuild, oracle %+v", all[i], got[i], want[i])
				}
			}
		})
	}
}

// TestCheckpointBilling: checkpoints are maintenance. In a fault-free run
// the per-call shard stats never include them, ShardStats.Total does, and
// the difference is exactly the Recovery account — bit for bit.
func TestCheckpointBilling(t *testing.T) {
	c := newTestCluster(t, 3)
	r := rng.NewXoshiro256(0xB111)
	calls := make([]core.BatchStats, c.Shards())
	add := func(st Stats) {
		for i := range st.Shards {
			calls[i].Accumulate(st.Shards[i])
		}
	}
	const keySpace = 1 << 10
	for round := 0; round < 300; round++ {
		b := 1 + r.Intn(4)
		keys := make([]uint64, b)
		vals := make([]int64, b)
		for i := range keys {
			keys[i] = 1 + r.Uint64n(keySpace)
			vals[i] = int64(round)
		}
		var st Stats
		var err error
		switch r.Intn(4) {
		case 0:
			_, _, st, err = c.TryDelete(keys)
		case 1:
			_, _, st, err = c.TryGet(keys)
		default:
			_, _, st, err = c.TryUpsert(keys, vals)
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		add(st)
	}
	for i := range calls {
		ss := c.ShardStats(i)
		if ss.Checkpoints == 0 {
			t.Fatalf("shard %d never checkpointed", i)
		}
		sum := calls[i]
		sum.Accumulate(ss.Recovery)
		if sum != ss.Total {
			t.Errorf("shard %d: Σ per-call %+v + checkpoints %+v != Total %+v", i, calls[i], ss.Recovery, ss.Total)
		}
	}
}
