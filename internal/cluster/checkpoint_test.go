package cluster

import (
	"fmt"
	"slices"
	"testing"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

// ckptDriver drives random upsert, delete and RangeTransform batches over a
// small key space (so keys recur) into a cluster and a single-Map oracle,
// and checks every checkpointed base as it appears.
type ckptDriver struct {
	t    *testing.T
	c    *Cluster[uint64, int64]
	om   *core.Map[uint64, int64]
	r    *rng.Xoshiro256
	seen []int64 // per shard: checkpoints already checked
	n    int     // checkpoints checked
}

const ckptKeySpace = 256

func (d *ckptDriver) step() {
	t, r := d.t, d.r
	switch k := r.Intn(10); {
	case k == 0:
		// Affine transforms do not commute, with each other or across
		// batches: a fold or a machine that applied them out of journal
		// and batch order would diverge. Ranges are wide enough for
		// RangeAuto to run some ops broadcast and others as a tree batch.
		ops := make([]core.RangeOp[uint64, int64], 1+r.Intn(3))
		for i := range ops {
			lo := r.Uint64n(ckptKeySpace + 1)
			mul, add := int64(2+r.Intn(3)), int64(1+r.Intn(100))
			ops[i] = core.RangeOp[uint64, int64]{Lo: lo, Hi: lo + r.Uint64n(ckptKeySpace/2), Kind: core.RangeTransform,
				Transform: func(v int64) int64 { return v*mul + add }}
		}
		if _, _, _, err := d.c.TryRangeOperation(ops); err != nil {
			t.Fatalf("TryRangeOperation: %v", err)
		}
		d.om.RangeAuto(ops)
	default:
		keys := make([]uint64, 1+r.Intn(16))
		for i := range keys {
			keys[i] = 1 + r.Uint64n(ckptKeySpace)
		}
		if k < 4 {
			if _, _, _, err := d.c.TryDelete(keys); err != nil {
				t.Fatalf("TryDelete: %v", err)
			}
			d.om.Delete(keys)
			break
		}
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(r.Uint64n(1 << 20))
		}
		if _, _, _, err := d.c.TryUpsert(keys, vals); err != nil {
			t.Fatalf("TryUpsert: %v", err)
		}
		d.om.Upsert(keys, vals)
	}
	d.checkBases()
}

// checkBases compares the base of every shard that checkpointed since the
// last call, bit for bit, with the oracle's pairs the shard owns and — when
// the shard runs fault-free, so the export cannot kill it — with a
// Snapshot of its live incarnation. Right after a checkpoint the journal
// is empty and the base is the whole committed state.
func (d *ckptDriver) checkBases() {
	t := d.t
	v := d.c.view.load()
	for len(d.seen) < len(v.shards) {
		d.seen = append(d.seen, 0)
	}
	oKeys, oVals, _ := d.om.Snapshot()
	for id, s := range v.shards {
		s.mu.Lock()
		if s.checkpoints == d.seen[id] || len(s.entries) != 0 {
			s.mu.Unlock()
			continue
		}
		d.seen[id] = s.checkpoints
		d.n++
		base := s.base
		live := s.plan == nil && s.m != nil
		var lk []uint64
		var lv []int64
		if live {
			lk, lv, _ = s.m.Snapshot()
		}
		s.mu.Unlock()
		var wk []uint64
		var wv []int64
		for i, k := range oKeys {
			if d.c.ShardOfSlot(d.c.SlotOf(k)) == id {
				wk = append(wk, k)
				wv = append(wv, oVals[i])
			}
		}
		if msg := diffPairs(base.keys, base.vals, wk, wv); msg != "" {
			t.Fatalf("shard %d checkpoint %d: base vs oracle: %s", id, d.seen[id], msg)
		}
		if live {
			if msg := diffPairs(base.keys, base.vals, lk, lv); msg != "" {
				t.Fatalf("shard %d checkpoint %d: base vs live Snapshot: %s", id, d.seen[id], msg)
			}
		}
	}
}

// diffPairs describes the first difference between two pair lists, or "".
func diffPairs(gk []uint64, gv []int64, wk []uint64, wv []int64) string {
	for i := 0; i < len(gk) && i < len(wk); i++ {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			return fmt.Sprintf("pair %d is %d=%d, want %d=%d", i, gk[i], gv[i], wk[i], wv[i])
		}
	}
	if len(gk) != len(wk) {
		return fmt.Sprintf("%d pairs, want %d", len(gk), len(wk))
	}
	return ""
}

// finalMatches checks every key's Get against the oracle.
func (d *ckptDriver) finalMatches() {
	all := make([]uint64, ckptKeySpace+2)
	for i := range all {
		all[i] = uint64(i)
	}
	got, _, _, err := d.c.TryGet(all)
	if err != nil {
		d.t.Fatalf("TryGet: %v", err)
	}
	want, _ := d.om.Get(all)
	for i := range all {
		if got[i] != want[i] {
			d.t.Fatalf("Get(%d) = %+v, oracle %+v", all[i], got[i], want[i])
		}
	}
	if d.c.Len() != d.om.Len() {
		d.t.Fatalf("cluster holds %d keys, oracle %d", d.c.Len(), d.om.Len())
	}
}

// TestCheckpointMatchesSnapshot verifies the host-side checkpoint: after
// every checkpoint the merged base equals, bit for bit, the live
// incarnation's Snapshot and the oracle — at the size rule and at a small
// CompactEvery, under a kill fault plan with rebuilds, and across a split
// whose copy phase injects enough writes to pass the size trigger.
func TestCheckpointMatchesSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every int
		kill  bool
		split bool
	}{
		{name: "size-rule"},
		{name: "every-3", every: 3},
		{name: "kill", kill: true},
		{name: "split", split: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := 2
			if tc.split {
				shards = 1
			}
			var profs []*trace.Profile
			c := newTestCluster(t, shards, func(cfg *Config) {
				cfg.CompactEvery = tc.every
				cfg.Trace = func(int) trace.Sink {
					profs = append(profs, trace.NewProfile())
					return profs[len(profs)-1]
				}
				if tc.kill {
					cfg.Faults = []core.FaultPlan{pim.KillPlan(60, pim.ChaosPlan(3)), pim.KillPlan(400, nil)}
				}
			})
			d := &ckptDriver{t: t, c: c, om: newOracle(t), r: rng.NewXoshiro256(0xC4E7)}
			for round := 0; round < 400; round++ {
				d.step()
				if tc.kill && round%97 == 96 {
					if round%2 == 0 { // the rebuild then loads the base as it is
						if err := c.DrainShard(1); err != nil {
							t.Fatalf("DrainShard: %v", err)
						}
					}
					if err := c.StopShard(1); err != nil {
						t.Fatalf("StopShard: %v", err)
					}
					if err := c.StartShard(1); err != nil {
						t.Fatalf("StartShard: %v", err)
					}
				}
			}
			if tc.kill {
				var kills, recs int64
				for i := 0; i < c.Shards(); i++ {
					st := c.ShardStats(i)
					kills += st.Kills
					recs += st.Recoveries
				}
				if kills < 2 || recs < 2 {
					t.Fatalf("kills=%d recoveries=%d, want both plans to fire and recover", kills, recs)
				}
			}
			defer func() {
				var events, folds, want int64
				for _, p := range profs {
					events += p.Checkpoints().Checkpoints
					folds += p.Checkpoints().Rebuilds
				}
				for i := 0; i < c.Shards(); i++ {
					want += c.ShardStats(i).Checkpoints
				}
				if events != want {
					t.Errorf("%d checkpoint trace events, ShardStats count %d", events, want)
				}
				if tc.kill && folds == 0 {
					t.Error("no rebuild fold traced")
				}
			}()
			if tc.split {
				before := c.ShardStats(0)
				_, _, err := c.SplitShard(0, &MigrateOpts{OnPhase: func(phase string) {
					if phase == PhaseCopy {
						for i := 0; i < 60; i++ {
							d.step()
						}
						if st := c.ShardStats(0); st.JournalOps < st.Len {
							t.Errorf("copy phase journaled %d ops over %d keys: the size trigger was not passed", st.JournalOps, st.Len)
						}
					}
				}})
				if err != nil {
					t.Fatalf("SplitShard: %v", err)
				}
				if c.ShardStats(0).Checkpoints != before.Checkpoints+1 {
					t.Fatal("a checkpoint other than the freeze ran during the migration")
				}
				n := d.n
				for round := 0; round < 200; round++ {
					d.step()
				}
				if d.n == n {
					t.Fatal("no checkpoint after the split")
				}
			}
			if d.n < 8 {
				t.Fatalf("only %d checkpoints checked", d.n)
			}
			d.finalMatches()
		})
	}
}

// TestCheckpointReusesBase: once warm, a checkpoint of a shard whose size
// did not change allocates nothing — the merge writes into a second base
// buffer that swaps with the live one, keeping capacity, and a transform
// in the journal reuses the fold's min-tree.
func TestCheckpointReusesBase(t *testing.T) {
	c := newTestCluster(t, 1, func(cfg *Config) { cfg.CompactEvery = -1 })
	const n = 2048
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint64(2*i + 1)
		vals[i] = int64(i)
	}
	if _, _, _, err := c.TryUpsert(keys, vals); err != nil {
		t.Fatalf("prefill: %v", err)
	}
	// Re-journaling pairs the machine already holds, a delete of some
	// then their upsert back, leaves the committed state, and so the
	// size, unchanged; so does a transform.
	upd := &shardBatch[uint64, int64]{kind: opUpsert, keys: keys[:700], vals: vals[:700]}
	del := &shardBatch[uint64, int64]{kind: opDelete, keys: keys[300:500]}
	tf := logEntry[uint64, int64]{kind: logTransform, ops: []core.RangeOp[uint64, int64]{{
		Lo: keys[100], Hi: keys[900], Kind: core.RangeTransform, Transform: func(v int64) int64 { return v + 1 }}}}
	s := c.view.load().shards[0]
	ckpt := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.journal(upd)
		s.entries = append(s.entries, tf)
		s.journalOps++
		s.journal(del)
		s.journal(upd)
		if _, err := s.compactLocked(&s.recovery); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		ckpt()
	}
	if allocs := testing.AllocsPerRun(20, ckpt); allocs != 0 {
		t.Errorf("steady-state checkpoint allocates %v times, want 0", allocs)
	}
	if st := c.ShardStats(0); st.JournalBase != n || st.Checkpoints < 20 {
		t.Fatalf("base %d keys after %d checkpoints, want %d keys", st.JournalBase, st.Checkpoints, n)
	}
}

// replayFold is the reference fold: base, then every journal entry replayed
// in order on a map.
func replayFold(base pairs[uint64, int64], entries []logEntry[uint64, int64]) ([]uint64, []int64) {
	m := make(map[uint64]int64, len(base.keys))
	for i, k := range base.keys {
		m[k] = base.vals[i]
	}
	for _, e := range entries {
		switch e.kind {
		case logUpsert:
			for i, k := range e.keys {
				m[k] = e.vals[i]
			}
		case logDelete:
			for _, k := range e.keys {
				delete(m, k)
			}
		case logTransform:
			for _, op := range e.ops {
				for k, v := range m {
					if op.Lo <= k && k <= op.Hi {
						m[k] = op.Transform(v)
					}
				}
			}
		}
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return keys, vals
}

// randJournal draws a base over [1, space] and a journal of n entries:
// upserts and deletes of 1–maxKeys keys, and, with probability 1/tfEvery,
// a transform entry of 1–3 affine ops over ranges up to span wide.
func randJournal(r *rng.Xoshiro256, space uint64, n, maxKeys, tfEvery int, span uint64) (pairs[uint64, int64], []logEntry[uint64, int64]) {
	var base pairs[uint64, int64]
	for k := uint64(1); k <= space; k++ {
		if r.Intn(2) == 0 {
			base.keys = append(base.keys, k)
			base.vals = append(base.vals, int64(r.Uint64n(1<<20)))
		}
	}
	entries := make([]logEntry[uint64, int64], n)
	for i := range entries {
		if r.Intn(tfEvery) == 0 {
			ops := make([]core.RangeOp[uint64, int64], 1+r.Intn(3))
			for j := range ops {
				lo := r.Uint64n(space + 1)
				mul, add := int64(2+r.Intn(3)), int64(1+r.Intn(100))
				ops[j] = core.RangeOp[uint64, int64]{Lo: lo, Hi: lo + r.Uint64n(span), Kind: core.RangeTransform,
					Transform: func(v int64) int64 { return v*mul + add }}
			}
			entries[i] = logEntry[uint64, int64]{kind: logTransform, ops: ops}
			continue
		}
		keys := make([]uint64, 1+r.Intn(maxKeys))
		for j := range keys {
			keys[j] = 1 + r.Uint64n(space)
		}
		if r.Intn(3) == 0 {
			entries[i] = logEntry[uint64, int64]{kind: logDelete, keys: keys}
			continue
		}
		vals := make([]int64, len(keys))
		for j := range vals {
			vals[j] = int64(r.Uint64n(1 << 20))
		}
		entries[i] = logEntry[uint64, int64]{kind: logUpsert, keys: keys, vals: vals}
	}
	return base, entries
}

// TestFoldMatchesReplay checks the fold against an op-by-op replay over
// random journals, from transform-free to mostly transforms, including
// keys that are deleted and written back between transforms.
func TestFoldMatchesReplay(t *testing.T) {
	r := rng.NewXoshiro256(0xF01D)
	var f folder[uint64, int64]
	for trial := 0; trial < 300; trial++ {
		space := uint64(1 + r.Intn(200))
		base, entries := randJournal(r, space, r.Intn(40), 8, 1+r.Intn(4), space/2+1)
		f.fold(base, entries)
		wk, wv := replayFold(base, entries)
		if msg := diffPairs(f.out.keys, f.out.vals, wk, wv); msg != "" {
			t.Fatalf("trial %d (%d keys, %d entries): %s", trial, len(base.keys), len(entries), msg)
		}
	}
}

// TestFoldCostInterleaved bounds a fold's CPU work when the journal
// alternates one-key writes with one-op transforms: each transform costs
// O(log n) per value it touches, not a pass over the shard, so the fold
// stays within a small multiple of |base| + ops·log n.
func TestFoldCostInterleaved(t *testing.T) {
	const n, m = 1 << 14, 4096
	var base pairs[uint64, int64]
	for k := uint64(0); k < n; k++ {
		base.keys = append(base.keys, 2*k)
		base.vals = append(base.vals, int64(k))
	}
	r := rng.NewXoshiro256(0x1A7E)
	entries := make([]logEntry[uint64, int64], m)
	for i := range entries {
		k := r.Uint64n(2 * n)
		if i%2 == 0 {
			entries[i] = logEntry[uint64, int64]{kind: logUpsert, keys: []uint64{k}, vals: []int64{int64(i)}}
			continue
		}
		entries[i] = logEntry[uint64, int64]{kind: logTransform, ops: []core.RangeOp[uint64, int64]{{
			Lo: k, Hi: k + 8, Kind: core.RangeTransform, Transform: func(v int64) int64 { return 3*v + 1 }}}}
	}
	var f folder[uint64, int64]
	st := f.fold(base, entries)
	wk, wv := replayFold(base, entries)
	if msg := diffPairs(f.out.keys, f.out.vals, wk, wv); msg != "" {
		t.Fatal(msg)
	}
	const logN = 15
	if bound := int64(4 * (n + m*logN)); st.CPUWork > bound {
		t.Errorf("fold CPU work %d, want at most %d = 4·(|base| + ops·log n)", st.CPUWork, bound)
	}
	t.Logf("CPU work %d, depth %d", st.CPUWork, st.CPUDepth)
}
