package main

import (
	"slices"
	"sync"
	"sync/atomic"
)

// sample is one latency observation: a call's host time in nanoseconds,
// weighted by the number of ops the call carried (1 for a single-op call,
// the sub-batch size for a batch call — every op in it waited that long),
// and the latency window of the timed run the call ended in.
type sample struct {
	ns  uint32
	w   uint32
	win uint32
}

const chunkLen = 8192

// benchBytes counts the bytes the benchmark itself allocates for latency
// samples while timing, so alloc_bytes_per_op and heap_peak_mib can leave
// them out.
var benchBytes atomic.Int64

// latLog is one driver's latency samples, in fixed-size chunks so appending
// never copies.
type latLog struct {
	chunks [][]sample
	cur    []sample
}

func (l *latLog) add(ns int64, w int, win int64) {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.chunks = append(l.chunks, l.cur)
		}
		l.cur = make([]sample, 0, chunkLen)
		benchBytes.Add(chunkLen * 12)
	}
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	l.cur = append(l.cur, sample{ns: uint32(ns), w: uint32(w), win: uint32(win)})
}

// all returns every sample logged.
func (l *latLog) all() []sample {
	out := make([]sample, 0, len(l.chunks)*chunkLen+len(l.cur))
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}

// latencies merges several drivers' logs.
func latencies(logs []*latLog) []sample {
	var out []sample
	for _, l := range logs {
		out = append(out, l.all()...)
	}
	return out
}

// percentiles returns the exact nearest-rank q-quantiles (each q in (0, 1])
// of the weighted samples, in nanoseconds, and the op count they cover: the
// q-quantile is the smallest sample value v such that ops with latency ≤ v
// make up at least ⌈q·total⌉ ops. No bucketing is involved, so a change
// shows only if some op's latency changed.
func percentiles(s []sample, qs ...float64) (vals []float64, total int64) {
	slices.SortFunc(s, func(a, b sample) int { return int(a.ns) - int(b.ns) })
	for _, x := range s {
		total += int64(x.w)
	}
	vals = make([]float64, len(qs))
	if total == 0 {
		return vals, 0
	}
	for i, q := range qs {
		rank := int64(q * float64(total))
		if float64(rank) < q*float64(total) {
			rank++
		}
		rank = max(rank, 1)
		var cum int64
		for _, x := range s {
			cum += int64(x.w)
			if cum >= rank {
				vals[i] = float64(x.ns)
				break
			}
		}
	}
	return vals, total
}

// windowedPercentile returns the median over the first n windows of each
// window's exact q-quantile, using the windows in which at least minBeyond
// ops lie beyond the quantile, and the number of windows used. A burst of
// slow calls (a neighbour's load, a GC) moves one window's figure, not the
// result.
func windowedPercentile(s []sample, q float64, minBeyond float64, n int) (float64, int) {
	byWin := map[uint32][]sample{}
	for _, x := range s {
		if int(x.win) < n {
			byWin[x.win] = append(byWin[x.win], x)
		}
	}
	var per []float64
	for _, ws := range byWin {
		v, total := percentiles(ws, q)
		if float64(total)*(1-q) >= minBeyond-1e-9 {
			per = append(per, v[0])
		}
	}
	return median(per), len(per)
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// counters is a set of per-driver op counters, padded so concurrent
// drivers do not share cache lines.
type counters struct {
	c []paddedCount
}

type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

func newCounters(n int) *counters { return &counters{c: make([]paddedCount, n)} }

func (c *counters) add(i int, d int64) { c.c[i].n.Add(d) }

func (c *counters) sum() int64 {
	var s int64
	for i := range c.c {
		s += c.c[i].n.Load()
	}
	return s
}

// failures collects wrong or failed replies from every driver.
type failures struct {
	n     atomic.Int64
	once  sync.Once
	first string
}

func (f *failures) add(ops int64, msg string) {
	f.n.Add(ops)
	f.once.Do(func() { f.first = msg })
}
