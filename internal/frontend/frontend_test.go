package frontend

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimgo/internal/baseline/seqlist"
	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

func newTestMap(t *testing.T, p int, opts ...func(*core.Config)) *core.Map[uint64, int64] {
	t.Helper()
	cfg := core.Config{P: p, Seed: 0xC0FFEE}
	for _, o := range opts {
		o(&cfg)
	}
	return core.New[uint64, int64](cfg, core.Uint64Hash)
}

// stoppedFrontend returns a Frontend whose collector has exited, so tests
// can drive flush deterministically with hand-built batches.
func stoppedFrontend(t *testing.T, m *core.Map[uint64, int64], cfg Config) *Frontend[uint64, int64] {
	t.Helper()
	f := New(m, cfg)
	f.Close()
	return f
}

// fut builds a ready-to-flush future.
func fut(kind opKind, key uint64, val int64) *future[uint64, int64] {
	return &future[uint64, int64]{ready: make(chan struct{}, 1), kind: kind, key: key, val: val, enq: time.Now()}
}

// reap asserts the future was answered and returns its reply fields.
func reap(t *testing.T, fu *future[uint64, int64]) (bool, uint64, int64) {
	t.Helper()
	select {
	case <-fu.ready:
	default:
		t.Fatalf("future (kind %d key %d) never answered", fu.kind, fu.key)
	}
	if fu.err != nil {
		t.Fatalf("future (kind %d key %d): unexpected error %v", fu.kind, fu.key, fu.err)
	}
	return fu.found, fu.rkey, fu.rval
}

// TestFlushWriteCoalescing: conflicting same-key writes coalesce to the
// final one, yet every op gets the reply it would have received running
// one-at-a-time in arrival order.
func TestFlushWriteCoalescing(t *testing.T) {
	m := newTestMap(t, 4)
	m.Upsert([]uint64{200}, []int64{5})
	f := stoppedFrontend(t, m, Config{})

	// Key 100 (absent): Upsert, Upsert, Delete — final state absent.
	// Key 200 (present): Delete, Upsert — final state present with new val.
	u1, u2, d1 := fut(opUpsert, 100, 1), fut(opUpsert, 100, 2), fut(opDelete, 100, 0)
	d2, u3 := fut(opDelete, 200, 0), fut(opUpsert, 200, 7)
	g1, g2 := fut(opGet, 100, 0), fut(opGet, 200, 0)
	f.flush([]*future[uint64, int64]{u1, d2, u2, u3, d1, g1, g2})

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
	// Reads see the post-write state.
	if found, _, _ := reap(t, g1); found {
		t.Error("get of net-deleted key: found = true, want false")
	}
	if found, _, v := reap(t, g2); !found || v != 7 {
		t.Errorf("get of net-upserted key = (%v, %d), want (true, 7)", found, v)
	}

	// The Map holds exactly the net state.
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	res, _ := m.Get([]uint64{100, 200})
	if res[0].Found || !res[1].Found || res[1].Value != 7 {
		t.Fatalf("net map state wrong: %+v", res)
	}

	st := f.Stats()
	// 7 ops; submitted = 2 final writes (delete 100, upsert 200) + 2 gets.
	if st.Ops != 7 || st.Submitted != 4 || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want Ops 7 Submitted 4 Flushes 1", st)
	}
}

// TestFlushWritesBeforeReads: Successor in a flush observes that flush's
// writes, regardless of arrival order.
func TestFlushWritesBeforeReads(t *testing.T) {
	m := newTestMap(t, 4)
	m.Upsert([]uint64{10, 30}, []int64{1, 3})
	f := stoppedFrontend(t, m, Config{})

	s1 := fut(opSucc, 15, 0)
	u1 := fut(opUpsert, 20, 2)
	f.flush([]*future[uint64, int64]{s1, u1}) // read arrives first, still sees the write

	reap(t, u1)
	if found, k, v := reap(t, s1); !found || k != 20 || v != 2 {
		t.Fatalf("Successor(15) = (%v, %d, %d), want (true, 20, 2)", found, k, v)
	}
}

// TestFrontendBasic: single-client round trip through the live collector.
func TestFrontendBasic(t *testing.T) {
	m := newTestMap(t, 4)
	f := New(m, Config{})
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

// TestFrontendClose: Close drains in-flight ops, later ops fail with
// core.ErrClosed, Close is idempotent and concurrency-safe — over a Map and
// over a 1-shard cluster.
func TestFrontendClose(t *testing.T) {
	for _, bk := range backends() {
		t.Run(bk.name, func(t *testing.T) {
			f, audit := bk.start(t, Config{})
			var wg sync.WaitGroup
			acked := make([][]uint64, 16)
			for g := range acked {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						k := uint64(g*1000 + i)
						_, err := f.Upsert(k, int64(i))
						if err != nil {
							if !errors.Is(err, core.ErrClosed) {
								t.Errorf("Upsert: err = %v, want ErrClosed", err)
							}
							return
						}
						acked[g] = append(acked[g], k)
					}
				}(g)
			}
			f.Close()
			f.Close() // idempotent
			wg.Wait()
			if _, err := f.Get(1); !errors.Is(err, core.ErrClosed) {
				t.Fatalf("Get after Close: err = %v, want ErrClosed", err)
			}
			// Every op that reported success is in the store (none lost in
			// the drain): the frontend is closed, so the store is free again
			// for a direct audit.
			if err := audit(slices.Concat(acked...)); err != nil {
				t.Fatalf("audit after drain: %v", err)
			}
		})
	}
}

// TestFrontendCloseDeterministic is the regression test for Close's error
// contract: among any number of Close calls — sequential repeats or
// concurrent races, with client ops still in flight — exactly the one that
// performed the shutdown returns nil and every other returns
// core.ErrClosed, always after the collector has fully drained.
func TestFrontendCloseDeterministic(t *testing.T) {
	// Sequential: second call reports ErrClosed.
	m := newTestMap(t, 4)
	defer m.Close()
	f := New(m, Config{})
	if err := f.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}

	// Concurrent: 8 racing Closes while 8 clients submit ops; exactly one
	// nil, and all return only after the drain (the collector goroutine has
	// exited, so a follow-up op must fail typed, never hang or race).
	for trial := 0; trial < 20; trial++ {
		m2 := newTestMap(t, 4)
		f2 := New(m2, Config{})
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
		m2.Close()
	}
}

// pointAPI is the single-key client surface both frontends promote from
// intake; tests that only need Get/Upsert/Delete/Successor run unchanged
// against a Frontend or a ClusterFrontend.
type pointAPI interface {
	Get(uint64) (core.GetResult[int64], error)
	Upsert(uint64, int64) (bool, error)
	Delete(uint64) (bool, error)
	Successor(uint64) (core.SearchResult[uint64, int64], error)
}

// shardClient runs one client's deterministic workload against its private
// key shard and checks every reply against a private seqlist oracle. Shards
// are disjoint and each keeps a never-deleted sentinel top key, so each
// client's reply stream is independent of how flushes interleave clients.
func shardClient(t *testing.T, f pointAPI, client, ops int) {
	base := uint64(client+1) << 32
	const span = 1 << 10
	sentinel := base + span + 1
	oracle := seqlist.New[uint64, int64](uint64(client) * 31)

	if ins, err := f.Upsert(sentinel, -1); err != nil || !ins {
		t.Errorf("client %d: sentinel upsert = (%v, %v)", client, ins, err)
		return
	}
	oracle.Upsert(sentinel, -1)

	r := rng.NewXoshiro256(0x5EED ^ uint64(client)*0x9E3779B97F4A7C15)
	for i := 0; i < ops; i++ {
		k := base + r.Uint64n(span)
		switch r.Intn(4) {
		case 0:
			v := int64(r.Uint64() >> 1)
			ins, err := f.Upsert(k, v)
			if err != nil {
				t.Errorf("client %d op %d: Upsert err %v", client, i, err)
				return
			}
			want, _ := oracle.Upsert(k, v)
			if ins != want {
				t.Errorf("client %d op %d: Upsert(%d) inserted=%v oracle %v", client, i, k, ins, want)
				return
			}
		case 1:
			found, err := f.Delete(k)
			if err != nil {
				t.Errorf("client %d op %d: Delete err %v", client, i, err)
				return
			}
			want, _ := oracle.Delete(k)
			if found != want {
				t.Errorf("client %d op %d: Delete(%d)=%v oracle %v", client, i, k, found, want)
				return
			}
		case 2:
			res, err := f.Get(k)
			if err != nil {
				t.Errorf("client %d op %d: Get err %v", client, i, err)
				return
			}
			wv, wok, _ := oracle.Get(k)
			if res.Found != wok || (wok && res.Value != wv) {
				t.Errorf("client %d op %d: Get(%d)=%+v oracle (%d,%v)", client, i, k, res, wv, wok)
				return
			}
		case 3:
			res, err := f.Successor(k)
			if err != nil {
				t.Errorf("client %d op %d: Successor err %v", client, i, err)
				return
			}
			wk, wv, wok, _ := oracle.Succ(k)
			if res.Found != wok || res.Key != wk || res.Value != wv {
				t.Errorf("client %d op %d: Successor(%d)=%+v oracle (%d,%d,%v)",
					client, i, k, res, wk, wv, wok)
				return
			}
		}
	}
}

// TestFrontendConcurrentOracle: many concurrent clients over disjoint key
// shards; every reply must match a per-client sequential oracle no matter
// how the collector interleaves and coalesces the traffic.
func TestFrontendConcurrentOracle(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxBatch: 64}, {MaxWait: 200 * time.Microsecond}} {
		m := newTestMap(t, 8)
		f := New(m, cfg)
		var wg sync.WaitGroup
		clients, ops := 32, 300
		if testing.Short() {
			clients, ops = 8, 100
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				shardClient(t, f, c, ops)
			}(c)
		}
		wg.Wait()
		st := f.Stats()
		f.Close()
		if st.Ops == 0 || st.Flushes == 0 {
			t.Fatalf("cfg %+v: collector saw no traffic: %+v", cfg, st)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("cfg %+v: invariants: %v", cfg, err)
		}
	}
}

// TestFrontendOracleAcrossGOMAXPROCS re-runs the concurrent-oracle
// workload at several GOMAXPROCS settings: per-client reply exactness must
// hold whether the collector and clients share one processor (the
// runnext/gather interplay) or race on several.
func TestFrontendOracleAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(gmp)
		m := newTestMap(t, 8)
		f := New(m, Config{})
		var wg sync.WaitGroup
		clients, ops := 16, 200
		if testing.Short() {
			clients, ops = 4, 50
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				shardClient(t, f, c, ops)
			}(c)
		}
		wg.Wait()
		f.Close()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("GOMAXPROCS %d: invariants: %v", gmp, err)
		}
	}
}

// TestFrontendChaosSoak: the concurrent-oracle workload over a Map with
// every built-in fault plan installed. The reliable transport must hide all
// injected faults: every client reply stays bit-identical to its sequential
// oracle. Skipped with -short.
func TestFrontendChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("frontend chaos soak skipped in -short mode")
	}
	const faultSeed = 0xFA17ED
	plans := []struct {
		name  string
		plan  *pim.SeededPlan
		fired func(core.FaultStats) bool
	}{
		{"drop", pim.DropPlan(faultSeed, 800), func(f core.FaultStats) bool {
			return f.SendsDropped+f.BundlesDropped > 0 && f.Retransmits > 0
		}},
		{"duplicate", pim.DupPlan(faultSeed, 800), func(f core.FaultStats) bool {
			return f.SendsDuplicated+f.BundlesDuplicated > 0 && f.Replays+f.DupDiscards > 0
		}},
		{"delay", pim.DelayPlan(faultSeed, 800, 3), func(f core.FaultStats) bool {
			return f.SendsDelayed+f.BundlesDelayed > 0
		}},
		{"stall", pim.StallPlan(faultSeed, 1500, 4), func(f core.FaultStats) bool {
			return f.StalledModuleRounds > 0
		}},
		{"crash", pim.CrashPlan(faultSeed, 400, 2), func(f core.FaultStats) bool {
			return f.CrashedModuleRounds > 0 && f.LostToCrash > 0
		}},
		{"chaos", pim.ChaosPlan(faultSeed), func(f core.FaultStats) bool {
			return f.SendsDropped > 0 && f.SendsDuplicated > 0 && f.SendsDelayed > 0
		}},
	}
	for _, tc := range plans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := newTestMap(t, 8, func(c *core.Config) { c.Fault = tc.plan })
			f := New(m, Config{MaxBatch: 128})
			var wg sync.WaitGroup
			const clients, ops = 16, 250
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					shardClient(t, f, c, ops)
				}(c)
			}
			wg.Wait()
			f.Close()
			fs := m.FaultStats()
			if !tc.fired(fs) {
				t.Fatalf("plan %s never fired under frontend traffic: %+v", tc.name, fs)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
		})
	}
}

// TestFrontendFlushTrace: a Profile installed on the Map receives FlushStat
// events alongside the machine stream, and its collector totals agree with
// the frontend's own Stats.
func TestFrontendFlushTrace(t *testing.T) {
	m := newTestMap(t, 4)
	p := trace.NewProfile()
	m.SetTraceSink(p)
	f := New(m, Config{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shardClient(t, f, c, 100)
		}(c)
	}
	wg.Wait()
	// A flush's counts land after its replies; Close drains the collector,
	// after which Stats is exact.
	f.Close()
	st := f.Stats()
	c := p.Collector()
	if c.Flushes != st.Flushes || c.Ops != st.Ops || c.Submitted != st.Submitted {
		t.Fatalf("profile collector %+v disagrees with frontend stats %+v", c, st)
	}
	if c.MeanBatch() <= 0 {
		t.Fatalf("MeanBatch = %v, want > 0", c.MeanBatch())
	}
	if p.Last() == nil {
		t.Fatal("machine stream missing: no batch profile recorded")
	}
}

// TestFrontendErrorDelivery: when the Map fails mid-flush (unrecoverable
// fault), every op of the flush receives the error and the frontend keeps
// serving (subsequent flushes fail the same way rather than hanging).
func TestFrontendErrorDelivery(t *testing.T) {
	m := newTestMap(t, 4, func(c *core.Config) { c.Fault = pim.DropPlan(7, 10000) })
	f := New(m, Config{})
	for i := 0; i < 3; i++ {
		_, err := f.Get(uint64(i))
		if !errors.Is(err, core.ErrFaultUnrecoverable) {
			f.Close()
			t.Fatalf("attempt %d: err = %v, want ErrFaultUnrecoverable", i, err)
		}
	}
	// A flush's counts land after its replies; Close drains the collector,
	// after which Stats is exact.
	f.Close()
	st := f.Stats()
	if st.Errors != 3 {
		t.Fatalf("Errors = %d, want 3", st.Errors)
	}
}

// TestFrontendDwell: with MaxWait set, a lone op is still flushed once the
// dwell expires (liveness), over a Map and over a 1-shard cluster.
func TestFrontendDwell(t *testing.T) {
	for _, bk := range backends() {
		t.Run(bk.name, func(t *testing.T) {
			f, _ := bk.start(t, Config{MaxWait: time.Millisecond})
			defer f.Close()
			loneOpCompletes(t, f)
		})
	}
}

// loneOpCompletes submits one Upsert of a fresh key and fails the test if
// it does not complete, inserted, within 5 s.
func loneOpCompletes(t *testing.T, f pointAPI) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if ins, err := f.Upsert(1, 1); err != nil || !ins {
			t.Errorf("lone op under dwell: (%v, %v)", ins, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lone op under MaxWait dwell never completed")
	}
}

// backend starts a live frontend with the given collector config over a
// fresh store. The returned audit runs once the frontend is closed: it
// checks the store's invariants where it has a checker, and that every
// given key is present.
type backend struct {
	name  string
	start func(t *testing.T, cfg Config) (f frontendAPI, audit func(keys []uint64) error)
}

// frontendAPI is pointAPI plus Close, the surface both frontends share.
type frontendAPI interface {
	pointAPI
	Close() error
}

// backends lists the two executors the collector runs on: a Map through
// New, and a 1-shard cluster through NewClusterFrontend.
func backends() []backend {
	return []backend{
		{"map", func(t *testing.T, cfg Config) (frontendAPI, func([]uint64) error) {
			m := newTestMap(t, 4)
			return New(m, cfg), func(keys []uint64) error {
				if err := m.CheckInvariants(); err != nil {
					return err
				}
				res, _, err := m.TryGet(keys)
				return allFound(keys, res, err)
			}
		}},
		{"cluster", func(t *testing.T, cfg Config) (frontendAPI, func([]uint64) error) {
			c := newTestCluster(t, 1)
			f := NewClusterFrontend(c, ClusterConfig{MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait})
			return f, func(keys []uint64) error {
				res, errs, _, err := c.TryGet(keys)
				if err == nil && errs != nil {
					err = errors.Join(errs...)
				}
				return allFound(keys, res, err)
			}
		}},
	}
}

// allFound reports err, or the first key whose Get result is absent.
func allFound(keys []uint64, res []core.GetResult[int64], err error) error {
	if err != nil {
		return err
	}
	for i, r := range res {
		if !r.Found {
			return fmt.Errorf("acknowledged key %d missing", keys[i])
		}
	}
	return nil
}
