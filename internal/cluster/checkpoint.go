package cluster

import (
	"cmp"
	"math/bits"
	"slices"

	"pimgo/internal/core"
	"pimgo/internal/cpu"
	"pimgo/internal/parutil"
)

// pairs is a key-sorted run of distinct keys with their values: a shard's
// checkpointed base, or the buffer a checkpoint merges into.
type pairs[K cmp.Ordered, V any] struct {
	keys []K
	vals []V
}

// folder computes base ⊕ journal on the host: the state a checkpoint
// installs and a rebuild bulk-loads. The host already holds the base and
// every acked op since, so nothing is read back from the machine. Its
// buffers keep their capacity across checkpoints, so a steady-state
// checkpoint allocates nothing.
type folder[K cmp.Ordered, V any] struct {
	// out is the merge target. A fold never writes the base it reads: a
	// migration's copy phase reads the frozen base without the shard lock
	// while a rebuild may fold into out.
	out pairs[K, V]
	// The journal's point ops, flattened in journal order (vals are zero
	// for deletes); idx, their positions sorted by (key, position): sorting
	// 4-byte positions keeps the sort's scratch small; tpos[j], the number
	// of point ops journaled ahead of the journal's j-th transform op.
	keys []K
	vals []V
	del  []bool
	idx  []int32
	tpos []int32
	// ep is a bottom-up min-tree over out: leaf len(out)+i holds the first
	// transform op that applies to out[i] — 0 for a key no point op wrote,
	// else the number of transform ops journaled ahead of its last write.
	ep   []int32
	ws   *parutil.Workspace
	tr   *cpu.Tracker
	root cpu.Ctx
	// less orders idx; made once, since a func literal in generic code is
	// allocated wherever it escapes.
	less func(a, b int32) bool
}

// fold writes base ⊕ entries into out and returns its model cost. Every
// point op of the journal is reduced to the last op per key, sorted by key
// and merged linearly with base; then each transform op applies its pure
// Transform, in journal order, to the values in [Lo, Hi] that the shard
// held when the op ran. The cost is CPU only: |base| + journal ops, the
// journal's sort and, with transforms, a pass over out plus O(log n) per
// op and per value it transformed. IO time, PIM time and rounds are zero.
func (f *folder[K, V]) fold(base pairs[K, V], entries []logEntry[K, V]) core.BatchStats {
	if f.tr == nil {
		f.tr = cpu.NewTracker()
		f.ws = parutil.NewWorkspace()
		f.less = func(a, b int32) bool {
			if ka, kb := f.keys[a], f.keys[b]; ka != kb {
				return ka < kb
			}
			return a < b
		}
	}
	f.tr.Reset()
	f.tr.RootInto(&f.root)
	c := &f.root
	f.keys, f.vals, f.del, f.idx, f.tpos = f.keys[:0], f.vals[:0], f.del[:0], f.idx[:0], f.tpos[:0]
	for i := range entries {
		e := &entries[i]
		if e.kind == logTransform {
			for range e.ops {
				f.tpos = append(f.tpos, int32(len(f.idx)))
			}
			continue
		}
		f.keys = append(f.keys, e.keys...)
		for x := range e.keys {
			var v V
			if e.kind != logDelete {
				v = e.vals[x]
			}
			f.vals = append(f.vals, v)
			f.del = append(f.del, e.kind == logDelete)
			f.idx = append(f.idx, int32(len(f.idx)))
		}
	}
	c.WorkFlat(int64(len(f.idx)))
	parutil.SortWS(c, f.ws, f.idx, f.less)
	f.merge(c, base)
	if len(f.tpos) > 0 && len(f.out.keys) > 0 {
		f.transform(c, entries)
	}
	f.tr.Finish(c)
	return core.BatchStats{CPUWork: f.tr.Work(), CPUDepth: f.tr.Depth()}
}

// merge writes base ⊕ idx into out, the last op of each key winning. The
// stretches of base between op keys are found by binary search and copied
// whole.
func (f *folder[K, V]) merge(c *cpu.Ctx, base pairs[K, V]) {
	out := &f.out
	out.keys, out.vals = out.keys[:0], out.vals[:0]
	c.WorkFlat(int64(len(base.keys)))
	i := 0
	for j, x := range f.idx {
		k := f.keys[x]
		if j+1 < len(f.idx) && f.keys[f.idx[j+1]] == k {
			continue
		}
		n, found := slices.BinarySearch(base.keys[i:], k)
		out.keys = append(out.keys, base.keys[i:i+n]...)
		out.vals = append(out.vals, base.vals[i:i+n]...)
		i += n
		if found {
			i++
		}
		if !f.del[x] {
			out.keys = append(out.keys, k)
			out.vals = append(out.vals, f.vals[x])
		}
	}
	out.keys = append(out.keys, base.keys[i:]...)
	out.vals = append(out.vals, base.vals[i:]...)
}

// transform applies the journal's transform ops to out in journal order.
// Op j transforms a value of out only if the shard held it when j ran:
// its key came from base untouched, or its last write, an upsert, was
// journaled ahead of j. The min-tree ep skips the rest, so an op costs a
// binary search plus O(log n) per value it transforms, however many point
// ops the journal interleaves with it.
func (f *folder[K, V]) transform(c *cpu.Ctx, entries []logEntry[K, V]) {
	n := len(f.out.keys)
	f.ep = slices.Grow(f.ep[:0], 2*n)[:2*n]
	leaves := f.ep[n:]
	clear(leaves)
	o := 0
	for j, x := range f.idx {
		k := f.keys[x]
		if j+1 < len(f.idx) && f.keys[f.idx[j+1]] == k || f.del[x] {
			continue
		}
		for f.out.keys[o] != k {
			o++
		}
		e, _ := slices.BinarySearch(f.tpos, x+1)
		leaves[o] = int32(e)
	}
	for v := n - 1; v > 0; v-- {
		f.ep[v] = min(f.ep[2*v], f.ep[2*v+1])
	}
	c.WorkFlat(int64(2*n + len(f.idx)))
	j := int32(0)
	for i := range entries {
		if entries[i].kind != logTransform {
			continue
		}
		for _, op := range entries[i].ops {
			lo, _ := slices.BinarySearch(f.out.keys, op.Lo)
			hi, found := slices.BinarySearch(f.out.keys, op.Hi)
			if found {
				hi++
			}
			c.Work(int64(bits.Len(uint(n))) + 1) // ⌈log₂(n+1)⌉ + 1
			var visited int64
			for l, r := lo+n, hi+n; l < r; l, r = l>>1, r>>1 {
				if l&1 == 1 {
					visited += f.apply(l, j, op.Transform)
					l++
				}
				if r&1 == 1 {
					r--
					visited += f.apply(r, j, op.Transform)
				}
			}
			c.WorkFlat(visited)
			j++
		}
	}
}

// apply runs tf on every value under tree node v whose first applicable op
// is at most j, and returns the number of nodes visited.
func (f *folder[K, V]) apply(v int, j int32, tf func(V) V) int64 {
	if f.ep[v] > j {
		return 1
	}
	if n := len(f.out.keys); v >= n {
		f.out.vals[v-n] = tf(f.out.vals[v-n])
		return 1
	}
	return 1 + f.apply(2*v, j, tf) + f.apply(2*v+1, j, tf)
}
