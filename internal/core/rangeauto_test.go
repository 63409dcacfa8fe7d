package core

import (
	"testing"

	"pimgo/internal/rng"
)

func TestRangeAutoMatchesTreeAndBroadcast(t *testing.T) {
	m, ref := seedMap(t, 8, 3000)
	keys := m.KeysInOrder()
	ops := []RangeOp[uint64, int64]{
		// Small ranges (tree regime).
		{Lo: keys[10], Hi: keys[14], Kind: RangeRead},
		{Lo: keys[100], Hi: keys[105], Kind: RangeCount},
		// Huge range (broadcast regime).
		{Lo: 0, Hi: 1 << 40, Kind: RangeCount},
		// Mid-size range straddling the cutoff neighbourhood.
		{Lo: keys[500], Hi: keys[500+m.SizeCutoff()], Kind: RangeRead},
		// Empty range.
		{Lo: keys[20] + 1, Hi: keys[20] + 1, Kind: RangeRead},
	}
	res, _ := m.RangeAuto(ops)
	for i, op := range ops {
		checkRange(t, "auto", res[i], ref.rangePairs(op.Lo, op.Hi), op.Kind == RangeRead)
	}
}

func TestRangeAutoRandomBatchCorrect(t *testing.T) {
	// Whatever the (approximate) dispatch decides, every result must be
	// exact — correctness never depends on the estimator.
	m, ref := seedMap(t, 8, 2000)
	r := rng.NewXoshiro256(61)
	ops := make([]RangeOp[uint64, int64], 100)
	for i := range ops {
		lo := r.Uint64n(20000)
		ops[i] = RangeOp[uint64, int64]{Lo: lo, Hi: lo + r.Uint64n(2000), Kind: RangeCount}
	}
	res, _ := m.RangeAuto(ops)
	for i, op := range ops {
		if want := int64(len(ref.rangePairs(op.Lo, op.Hi))); res[i].Count != want {
			t.Fatalf("op %d [%d,%d]: count %d want %d", i, op.Lo, op.Hi, res[i].Count, want)
		}
	}
}

func TestRangeAutoTransform(t *testing.T) {
	m, ref := seedMap(t, 4, 1500)
	keys := m.KeysInOrder()
	double := func(v int64) int64 { return v * 2 }
	ops := []RangeOp[uint64, int64]{
		{Lo: keys[5], Hi: keys[9], Kind: RangeTransform, Transform: double},           // small → tree
		{Lo: keys[0], Hi: keys[len(keys)-1], Kind: RangeTransform, Transform: double}, // huge → broadcast
	}
	m.RangeAuto(ops)
	mustCheck(t, m)
	for _, k := range ref.sortedKeys() {
		want := ref.m[k] * 2 // everything doubled once by the huge op
		if k >= keys[5] && k <= keys[9] {
			want *= 2 // doubled again by the small op (applied first)
		}
		got, _ := m.GetOne(k)
		if !got.Found || got.Value != want {
			t.Fatalf("Get(%d) = %+v, want %d", k, got, want)
		}
	}
}

// TestRangeAutoBatchOrder: a small op ahead of an overlapping large one
// applies first, though large ops run broadcast and small ones as a tree
// batch — whether the transforms commute or not, and for a read ahead of a
// transform.
func TestRangeAutoBatchOrder(t *testing.T) {
	m, ref := seedMap(t, 4, 1500)
	keys := m.KeysInOrder()
	lo, hi := keys[5], keys[9]
	huge := RangeOp[uint64, int64]{Lo: keys[0], Hi: keys[len(keys)-1], Kind: RangeTransform,
		Transform: func(v int64) int64 { return v + 1 }}
	ops := []RangeOp[uint64, int64]{
		{Lo: lo, Hi: hi, Kind: RangeRead},
		{Lo: lo, Hi: hi, Kind: RangeTransform, Transform: func(v int64) int64 { return v * 3 }},
		huge,
		{Lo: keys[20], Hi: keys[22], Kind: RangeRead},
	}
	res, _ := m.RangeAuto(ops)
	mustCheck(t, m)
	checkRange(t, "read before the transforms", res[0], ref.rangePairs(lo, hi), true)
	for i, p := range res[3].Pairs {
		if want := ref.m[p.Key] + 1; p.Value != want {
			t.Fatalf("read after the huge op: pair %d is %d=%d, want %d", i, p.Key, p.Value, want)
		}
	}
	for _, k := range ref.sortedKeys() {
		want := ref.m[k]
		if k >= lo && k <= hi {
			want *= 3 // the small op runs first
		}
		want++
		got, _ := m.GetOne(k)
		if !got.Found || got.Value != want {
			t.Fatalf("Get(%d) = %+v, want %d", k, got, want)
		}
	}
}

func TestRangeAutoEmptyBatch(t *testing.T) {
	m := newTestMap(t, 4)
	res, _ := m.RangeAuto(nil)
	if len(res) != 0 {
		t.Fatal("empty batch")
	}
}

func TestRangeAutoCheaperThanPureStrategies(t *testing.T) {
	// A mixed batch (tiny ranges + one huge range) should beat both pure
	// strategies on total PIM work.
	m, _ := seedMap(t, 16, 4000)
	keys := m.KeysInOrder()
	var ops []RangeOp[uint64, int64]
	for i := 0; i < 40; i++ {
		lo := keys[50+i*80]
		ops = append(ops, RangeOp[uint64, int64]{Lo: lo, Hi: keys[50+i*80+3], Kind: RangeCount})
	}
	ops = append(ops, RangeOp[uint64, int64]{Lo: keys[0], Hi: keys[len(keys)-1], Kind: RangeCount})

	_, stAuto := m.RangeAuto(ops)
	_, stTree := m.RangeTree(ops)
	// Broadcast can't run a batch; emulate with per-op broadcasts.
	m.Machine().ResetMetrics()
	var bcastWork int64
	for _, op := range ops {
		_, st := m.RangeBroadcast(op)
		bcastWork += st.TotalPIMWork
	}
	if stAuto.TotalPIMWork > stTree.TotalPIMWork {
		t.Fatalf("auto (%d) should not exceed pure tree (%d) on mixed batch",
			stAuto.TotalPIMWork, stTree.TotalPIMWork)
	}
	if stAuto.TotalPIMWork > bcastWork {
		t.Fatalf("auto (%d) should not exceed pure broadcast (%d) on mixed batch",
			stAuto.TotalPIMWork, bcastWork)
	}
}

func TestSizeCutoff(t *testing.T) {
	m := newTestMap(t, 32)
	if got := m.SizeCutoff(); got != 32*5 {
		t.Fatalf("cutoff = %d, want 160", got)
	}
}
