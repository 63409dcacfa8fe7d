package core

import (
	"errors"
	"runtime"
	"testing"
	"weak"

	"pimgo/internal/pim"
)

// TestTryNewRejectsBadConfig: every constructor-time misuse comes back as
// ErrBadConfig from TryNew, and as a typed panic from New.
func TestTryNewRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		hash func(uint64) uint64
	}{
		{"P too small", Config{P: 1}, Uint64Hash},
		{"negative HLow", Config{P: 4, HLow: -1}, Uint64Hash},
		{"negative MaxLevel", Config{P: 4, MaxLevel: -3}, Uint64Hash},
		{"negative PivotSpacing", Config{P: 4, PivotSpacing: -2}, Uint64Hash},
		{"nil hasher", Config{P: 4}, nil},
	}
	for _, tc := range cases {
		m, err := TryNew[uint64, int64](tc.cfg, tc.hash)
		if m != nil || !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: TryNew = (%v, %v), want (nil, ErrBadConfig)", tc.name, m, err)
		}
	}
	// The legacy constructor panics, but with the same typed error.
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrBadConfig) {
				t.Errorf("New with P=1 panicked with %v, want ErrBadConfig", r)
			}
		}()
		New[uint64, int64](Config{P: 1}, Uint64Hash)
	}()
}

// TestTryBatchLengthMismatch: keys/vals length mismatches are reported as
// ErrBadBatch before any work happens, with the structure untouched.
func TestTryBatchLengthMismatch(t *testing.T) {
	m := newTestMap(t, 4)
	if _, _, err := m.TryUpdate([]uint64{1, 2}, []int64{9}); !errors.Is(err, ErrBadBatch) {
		t.Errorf("TryUpdate mismatch: err = %v, want ErrBadBatch", err)
	}
	if _, _, err := m.TryUpsert([]uint64{1, 2, 3}, nil); !errors.Is(err, ErrBadBatch) {
		t.Errorf("TryUpsert mismatch: err = %v, want ErrBadBatch", err)
	}
	if m.Len() != 0 {
		t.Fatalf("rejected batches mutated the map: Len = %d", m.Len())
	}
	// The legacy entry point panics with the same typed error.
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrBadBatch) {
				t.Errorf("Upsert mismatch panicked with %v, want ErrBadBatch", r)
			}
		}()
		m.Upsert([]uint64{1}, []int64{1, 2})
	}()
	// The map is still usable after a rejected batch.
	ins, _, err := m.TryUpsert([]uint64{7}, []int64{70})
	if err != nil || !ins[0] {
		t.Fatalf("TryUpsert after rejection = (%v, %v)", ins, err)
	}
}

// TestClosedMapTypedError: after Close, every Try* entry point returns
// ErrClosed (no hang, no deadlock) and the legacy methods panic with it.
func TestClosedMapTypedError(t *testing.T) {
	m := newTestMap(t, 4)
	m.Upsert([]uint64{1, 2, 3}, []int64{10, 20, 30})
	m.Close()
	m.Close() // idempotent
	if !m.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if _, _, err := m.TryGet([]uint64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("TryGet after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := m.TryUpsert([]uint64{4}, []int64{40}); !errors.Is(err, ErrClosed) {
		t.Errorf("TryUpsert after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := m.TryDelete([]uint64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("TryDelete after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := m.TrySuccessor([]uint64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("TrySuccessor after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := m.TryPredecessor([]uint64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("TryPredecessor after Close: err = %v, want ErrClosed", err)
	}
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrClosed) {
				t.Errorf("Get after Close panicked with %v, want ErrClosed", r)
			}
		}()
		m.Get([]uint64{1})
	}()
}

// TestClosedMapIsCollected: a closed Map's machine becomes garbage once the
// caller drops the Map. The machine's worker-pool finalizer sits in a
// reference cycle (Map → machine → module state → Map), and Go never
// collects a cycle holding a finalizer, so Close must clear it.
func TestClosedMapIsCollected(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // NewMachine spawns workers only when > 1
	m := New[uint64, int64](Config{P: 8, Seed: 0xC0FFEE}, Uint64Hash)
	const n = 4096
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint64(i)*2 + 1
		vals[i] = int64(i)
	}
	m.Upsert(keys, vals)
	m.Close()
	wp := weak.Make(m.mach)
	m = nil
	for i := 0; i < 3 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("closed Map's machine is still reachable after runtime.GC")
	}
}

// TestUnrecoverableFaultTypedError: a plan that drops every message defeats
// the retransmit budget; the batch must fail with ErrFaultUnrecoverable
// instead of spinning in Drive forever, and the failure is deterministic.
func TestUnrecoverableFaultTypedError(t *testing.T) {
	m := newTestMap(t, 4, func(c *Config) { c.Fault = pim.DropPlan(7, 10000) })
	_, _, err := m.TryUpsert([]uint64{1, 2, 3, 4}, []int64{1, 2, 3, 4})
	if !errors.Is(err, ErrFaultUnrecoverable) {
		t.Fatalf("TryUpsert under total loss: err = %v, want ErrFaultUnrecoverable", err)
	}
	if fs := m.FaultStats(); fs.SendsDropped == 0 || fs.Retransmits == 0 {
		t.Errorf("expected drops and retransmits before giving up: %+v", fs)
	}
	// Deterministic: the same doomed batch fails the same way again.
	_, _, err2 := m.TryUpsert([]uint64{1, 2, 3, 4}, []int64{1, 2, 3, 4})
	if !errors.Is(err2, ErrFaultUnrecoverable) {
		t.Fatalf("second attempt: err = %v, want ErrFaultUnrecoverable", err2)
	}
}
