package main

import (
	"slices"
	"testing"

	"pimgo"
)

func TestSameSeedSameOpStream(t *testing.T) {
	shared := sharedKeys()
	if !slices.Equal(shared, sharedKeys()) {
		t.Fatal("shared region differs for one seed")
	}
	draw := func(seed uint64, client int) []op {
		s := newStream(seed, client, readMostly, shared, clientChurn)
		out := make([]op, 5000)
		for i := range out {
			s.next(&out[i])
		}
		return out
	}
	if !slices.Equal(draw(7, 3), draw(7, 3)) {
		t.Fatal("one seed gave two op streams")
	}
	if slices.Equal(draw(7, 3), draw(8, 3)) || slices.Equal(draw(7, 3), draw(7, 4)) {
		t.Fatal("different seeds or clients gave the same op stream")
	}
	fill := func(seed uint64) [][]uint64 {
		b := newBatch(batchOps, churnTotal)
		s := newStream(seed, 0, writeHeavy, shared, churnTotal)
		var keys [][]uint64
		for i := 0; i < 20; i++ {
			b.fill(s, batchOps)
			for k := range b.keys {
				keys = append(keys, slices.Clone(b.keys[k]))
			}
		}
		return keys
	}
	if !slices.EqualFunc(fill(9), fill(9), slices.Equal) {
		t.Fatal("one seed gave two batch streams")
	}
}

func TestBatchWritesDistinct(t *testing.T) {
	shared := sharedKeys()
	b := newBatch(batchOps, churnTotal)
	s := newStream(1, 0, writeHeavy, shared, churnTotal)
	for i := 0; i < 50; i++ {
		b.fill(s, batchOps)
		seen := map[uint64]bool{}
		for _, k := range append(slices.Clone(b.keys[opUpsert]), b.keys[opDelete]...) {
			if seen[k] {
				t.Fatalf("batch %d writes key %d twice", i, k)
			}
			seen[k] = true
		}
		if b.size() != batchOps {
			t.Fatalf("batch %d has %d ops", i, b.size())
		}
	}
}

// fakeAPI answers single-key ops correctly from an in-memory model, except
// that it corrupts the reply to call number corruptAt (1-based), a Get.
type fakeAPI struct {
	shared    []uint64
	churn     map[uint64]bool
	calls     int
	corruptAt int
	stopAfter int
	sys       *system
}

func (f *fakeAPI) tick() {
	f.calls++
	if f.calls >= f.stopAfter {
		f.sys.stop.Store(true)
	}
}

func (f *fakeAPI) Get(k uint64) (pimgo.GetResult[int64], error) {
	f.tick()
	_, found := slices.BinarySearch(f.shared, k)
	r := pimgo.GetResult[int64]{Found: found, Value: int64(k)}
	if f.calls == f.corruptAt {
		r.Value++
		r.Found = true
	}
	return r, nil
}

func (f *fakeAPI) Upsert(k uint64, _ int64) (bool, error) {
	f.tick()
	ins := !f.churn[k]
	f.churn[k] = true
	return ins, nil
}

func (f *fakeAPI) Delete(k uint64) (bool, error) {
	f.tick()
	was := f.churn[k]
	delete(f.churn, k)
	return was, nil
}

func (f *fakeAPI) Successor(q uint64) (pimgo.SearchResult[uint64, int64], error) {
	f.tick()
	k := f.shared[sharedFloor(f.shared, q)]
	return pimgo.SearchResult[uint64, int64]{Found: true, Key: k, Value: int64(k)}, nil
}

// runFake drives client 0's op stream against a fake store, corrupting one
// Get reply if asked, and returns the failures the client counted.
func runFake(corrupt bool) int64 {
	cfg := buildCfg{seed: 5, shared: sharedKeys(), clk: newClock()}
	sys := newSystem(cfg, clients, modules)
	f := &fakeAPI{shared: cfg.shared, churn: map[uint64]bool{}, stopAfter: 3000, sys: sys}
	for off, ok := range initialChurn(0, clientChurn, readMostly) {
		if ok {
			f.churn[churnBase(0, clientChurn)+uint64(off)] = true
		}
	}
	if corrupt {
		s := newStream(cfg.seed, 0, readMostly, cfg.shared, clientChurn)
		var o op
		for i := 1; f.corruptAt == 0; i++ {
			if s.next(&o); o.kind == opGet && i > 100 {
				f.corruptAt = i
			}
		}
	}
	runClient(sys, cfg, f, 0, make(chan struct{}, 1))
	return sys.fail.n.Load()
}

func TestOracleRejectsCorruptReply(t *testing.T) {
	if n := runFake(false); n != 0 {
		t.Fatalf("correct replies counted %d failures", n)
	}
	if n := runFake(true); n != 1 {
		t.Fatalf("one corrupted Get reply counted %d failures, want 1", n)
	}
	// Writes: a wrong inserted/was-present bit fails the sequential oracle.
	o := oracle{present: make([]bool, 4)}
	if !o.upsert(1) || o.upsert(1) || !o.delete(1) || o.delete(1) {
		t.Fatal("oracle write semantics")
	}
	shared := []uint64{10, 20, 30}
	if !checkGet(shared, 20, true, 20) || checkGet(shared, 20, true, 21) || checkGet(shared, 25, true, 25) {
		t.Fatal("checkGet")
	}
	if !checkSucc(shared, 11, true, 20, 20) || checkSucc(shared, 11, true, 30, 30) || checkSucc(shared, 11, false, 0, 0) {
		t.Fatal("checkSucc")
	}
}

func TestPercentileRule(t *testing.T) {
	var s []sample
	for i := 100; i >= 1; i-- {
		s = append(s, sample{ns: uint32(i), w: 1})
	}
	v, n := percentiles(s, 0.5, 0.99, 1)
	if n != 100 || v[0] != 50 || v[1] != 99 || v[2] != 100 {
		t.Fatalf("percentiles of 1..100 = %v over %d", v, n)
	}
	// Weighted: a batch call carrying 90 ops at 10ns and one op at 1000ns.
	v, n = percentiles([]sample{{ns: 1000, w: 1}, {ns: 10, w: 90}, {ns: 500, w: 9}}, 0.5, 0.9, 0.91, 0.99, 1)
	if n != 100 || !slices.Equal(v, []float64{10, 10, 500, 500, 1000}) {
		t.Fatalf("weighted percentiles = %v over %d", v, n)
	}
	if v, n := percentiles(nil, 0.5); n != 0 || v[0] != 0 {
		t.Fatal("empty samples")
	}
	// Windowed: window 1 has one slow op in 101; window 2 has too few ops
	// for ten beyond its p90; window 3 is past the last complete window.
	var ws []sample
	for i := 0; i < 100; i++ {
		ws = append(ws, sample{ns: 10, w: 1, win: 0}, sample{ns: 20, w: 1, win: 1})
	}
	ws = append(ws, sample{ns: 5000, w: 1, win: 1}, sample{ns: 7, w: 50, win: 2}, sample{ns: 1, w: 500, win: 3})
	if v, n := windowedPercentile(ws, 0.9, 10, 3); n != 2 || v != 15 {
		t.Fatalf("windowed p90 = %v over %d windows", v, n)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("median")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	// flush [0,100] ← batch A [10,40] ← phase [15,25] and phase [20,35]
	//               ← batch B [30,60] (overlaps A: shards run in parallel)
	//               ← batch C [90,120] (runs past the flush's end)
	all := []span{
		{kind: kindFlush, parent: -1, start: 0, end: 100},
		{kind: kindBatch, parent: 0, start: 10, end: 40},
		{kind: kindBatch, parent: 0, start: 30, end: 60},
		{kind: kindBatch, parent: 0, start: 90, end: 120},
		{kind: kindPhase, parent: 1, start: 15, end: 25},
		{kind: kindPhase, parent: 1, start: 20, end: 35},
	}
	got := selfTimes(all)
	want := []int64{100 - 50 - 10, 30 - 20, 30, 30, 10, 15}
	if !slices.Equal(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestLinking(t *testing.T) {
	clk := newClock()
	ss := &sinkSet{clk: clk}
	sk := ss.newSink(0)
	sk.batches = []span{{kind: kindBatch, shard: 0, name: "get", start: 12, end: 20},
		{kind: kindBatch, shard: 0, name: "get", start: 55, end: 58}}
	sk.phases = []span{{kind: kindPhase, name: "execute", parent: 1, start: 56, end: 57}}
	rec := &spanRec{calls: []span{
		{kind: kindMigration, start: 40, end: 80},
		{kind: kindCall, start: 10, end: 30},
		{kind: kindMigPhase, name: "freeze", start: 41, end: 50},
		{kind: kindCall, start: 52, end: 60},
	}}
	td := collect([]*spanRec{rec}, ss, 4)
	parent := map[int64]int64{} // span start → parent start
	for _, s := range td.all {
		p := int64(-1)
		if s.parent >= 0 {
			p = td.all[s.parent].start
		}
		parent[s.start] = p
	}
	want := map[int64]int64{10: -1, 40: -1, 41: 40, 12: 10, 52: 40, 55: 52, 56: 55}
	for s, p := range want {
		if parent[s] != p {
			t.Errorf("span at %d: parent at %d, want %d", s, parent[s], p)
		}
	}
}

func TestChurnScheduleDependsOnOpCountAlone(t *testing.T) {
	// Replays the driver's accounting: each step issues one batch, and each
	// migration injects injectBatches batches at both phase boundaries.
	plan := func(until int64) (at []int64, split []bool) {
		sc := churnSchedule{every: migrateEvery}
		var batches int64
		done := 0
		for batches < until {
			if due, sp := sc.due(batches, done); due {
				at = append(at, batches)
				split = append(split, sp)
				batches += 2 * injectBatches
				done++
			}
			batches++
		}
		return at, split
	}
	at, split := plan(churnModelBatches)
	at2, split2 := plan(churnModelBatches)
	if !slices.Equal(at, at2) || !slices.Equal(split, split2) {
		t.Fatal("schedule differs between replays")
	}
	if len(at) != (churnModelBatches-1)/migrateEvery {
		t.Fatalf("%d migrations in the model window, at %v", len(at), at)
	}
	for i := range at {
		if at[i] < int64(i+1)*migrateEvery || split[i] != (i%2 == 0) {
			t.Fatalf("migration %d at batch %d split=%v", i, at[i], split[i])
		}
	}
}
