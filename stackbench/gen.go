package main

import (
	"math/rand/v2"
	"slices"
)

// The op stream: one seeded generator shared by all four workloads.
//
// Key layout. The shared read region is sharedN distinct keys in [1, 2^31),
// key k carrying value int64(k); it is prefilled and never written, so it is
// its own read oracle (presence is a binary search). Writes churn private
// ranges above 2^32: client c owns churnBase(c, span) + [0, span). The
// ranges are disjoint, so every client's write replies depend only on its
// own op sequence and a per-client sequential oracle checks them exactly,
// whatever the interleaving. Successor queries stay inside the shared
// region, whose keys all lie below every churn key, so their answer is
// static too. Contended-key traffic (several clients writing one key) needs
// a linearizability checker and is not generated.

const (
	sharedN     = 1 << 17 // shared read region size
	churnTotal  = 1 << 14 // churn keys across all clients of a workload
	probeLimit  = 1 << 31 // Gets and shared keys draw from [1, probeLimit)
	churnOrigin = 1 << 32 // churn ranges start here, above every read key
)

type opKind uint8

const (
	opGet opKind = iota
	opSucc
	opUpsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"get", "successor", "upsert", "delete"}

// op is one generated operation. off is the churn offset of a write (the
// oracle's index); Key is churnBase+off for writes.
type op struct {
	kind opKind
	key  uint64
	val  int64
	off  int32
}

// mix gives the percentage of each op kind; the four sum to 100.
type mix [numKinds]int

var (
	readMostly = mix{opGet: 70, opSucc: 20, opUpsert: 7, opDelete: 3}
	writeHeavy = mix{opGet: 40, opSucc: 10, opUpsert: 35, opDelete: 15}
)

// occupancy is the steady-state share of churn keys present: upserts and
// deletes pick offsets uniformly, so a key is present with probability
// upsert/(upsert+delete). Both mixes give 0.7.
func (m mix) occupancy() float64 {
	return float64(m[opUpsert]) / float64(m[opUpsert]+m[opDelete])
}

// tableSeed fixes the prefilled table: the shared region and which churn
// keys start present. The workload seed varies the op streams only, so
// every seed runs against the same table.
const tableSeed = 0x7AB1E

// sharedKeys returns the shared read region: sharedN sorted distinct keys
// in [1, probeLimit).
func sharedKeys() []uint64 {
	r := rand.New(rand.NewPCG(tableSeed, 0x5AA7ED))
	seen := make(map[uint64]struct{}, sharedN)
	keys := make([]uint64, 0, sharedN)
	for len(keys) < sharedN {
		k := 1 + r.Uint64N(probeLimit-1)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// churnBase is the first key of client c's churn range.
func churnBase(c, span int) uint64 { return churnOrigin + uint64(c)*uint64(span+1) }

// stream is one client's deterministic op sequence. It allocates nothing.
type stream struct {
	r      *rand.Rand
	mix    mix
	shared []uint64
	base   uint64
	span   int
}

func newStream(seed uint64, client int, m mix, shared []uint64, span int) *stream {
	return &stream{
		r:      rand.New(rand.NewPCG(seed, 0xC11E47^uint64(client)*0x9E3779B97F4A7C15)),
		mix:    m,
		shared: shared,
		base:   churnBase(client, span),
		span:   span,
	}
}

// next draws the next op into o.
func (s *stream) next(o *op) {
	j := s.r.IntN(100)
	k := opGet
	for k < opDelete && j >= s.mix[k] {
		j -= s.mix[k]
		k++
	}
	o.kind = k
	o.val = 0
	o.off = -1
	switch k {
	case opGet:
		// 80% hits on the shared region, 20% random probes (mostly misses).
		if s.r.IntN(10) < 8 {
			o.key = s.shared[s.r.IntN(len(s.shared))]
		} else {
			o.key = 1 + s.r.Uint64N(probeLimit-1)
		}
	case opSucc:
		o.key = 1 + s.r.Uint64N(s.shared[len(s.shared)-1])
	default:
		s.redrawWrite(o)
		if k == opUpsert {
			o.val = int64(s.r.Uint64() >> 1)
		}
	}
}

// redrawWrite picks a fresh churn offset for write o. The batch builder
// calls it again when a batch already writes the drawn key, so a batch never
// writes one key twice.
func (s *stream) redrawWrite(o *op) {
	o.off = int32(s.r.IntN(s.span))
	o.key = s.base + uint64(o.off)
}

// initialChurn returns which of client c's churn offsets are present when
// timing starts: each with the mix's steady-state occupancy, so the table
// size neither grows nor shrinks during the run.
func initialChurn(client, span int, m mix) []bool {
	r := rand.New(rand.NewPCG(tableSeed^0x1417, uint64(client)))
	p := m.occupancy()
	present := make([]bool, span)
	for i := range present {
		present[i] = r.Float64() < p
	}
	return present
}

// oracle is a client's sequential model of its churn range.
type oracle struct{ present []bool }

func (o *oracle) upsert(off int32) bool {
	ins := !o.present[off]
	o.present[off] = true
	return ins
}

func (o *oracle) delete(off int32) bool {
	was := o.present[off]
	o.present[off] = false
	return was
}

// sharedFloor is the index of the first shared key ≥ q.
func sharedFloor(shared []uint64, q uint64) int {
	i, _ := slices.BinarySearch(shared, q)
	return i
}

// checkGet reports whether a Get reply for k matches the shared region.
func checkGet(shared []uint64, k uint64, found bool, val int64) bool {
	i := sharedFloor(shared, k)
	want := i < len(shared) && shared[i] == k
	return found == want && (!want || val == int64(k))
}

// checkSucc reports whether a Successor reply for q matches the shared
// region (q never exceeds the largest shared key, so one always exists).
func checkSucc(shared []uint64, q uint64, found bool, key uint64, val int64) bool {
	want := shared[sharedFloor(shared, q)]
	return found && key == want && val == int64(want)
}

// batch is one kind-split batch of ops for the batch-API workloads. Each
// kind's keys (and upsert values) are laid out for a direct batch call; ops
// keep the per-kind generated ops for checking replies.
type batch struct {
	ops  [numKinds][]op
	keys [numKinds][]uint64
	vals []int64
	// stamp marks churn offsets written by the current batch (value = batch
	// number + 1) so writes within one batch stay distinct.
	stamp []uint32
	seq   uint32
}

func newBatch(size, span int) *batch {
	b := &batch{stamp: make([]uint32, span), vals: make([]int64, 0, size)}
	for k := range b.ops {
		b.ops[k] = make([]op, 0, size)
		b.keys[k] = make([]uint64, 0, size)
	}
	return b
}

// fill draws n ops from s into b, split by kind, redrawing any write whose
// key the batch already writes.
func (b *batch) fill(s *stream, n int) {
	b.seq++
	for k := range b.ops {
		b.ops[k] = b.ops[k][:0]
		b.keys[k] = b.keys[k][:0]
	}
	b.vals = b.vals[:0]
	var o op
	for i := 0; i < n; i++ {
		s.next(&o)
		if o.kind >= opUpsert {
			for b.stamp[o.off] == b.seq {
				s.redrawWrite(&o)
			}
			b.stamp[o.off] = b.seq
			if o.kind == opUpsert {
				b.vals = append(b.vals, o.val)
			}
		}
		b.ops[o.kind] = append(b.ops[o.kind], o)
		b.keys[o.kind] = append(b.keys[o.kind], o.key)
	}
}

// size is the number of ops in the batch.
func (b *batch) size() int {
	n := 0
	for k := range b.ops {
		n += len(b.ops[k])
	}
	return n
}
