package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimgo"
)

// The traced run. The benchmark's own sinks implement pimgo.TraceSink
// (and the flush extension pimgo.TraceFlushSink) and are installed through
// the program's public hooks: Config.Trace on a Map, the per-shard
// ClusterConfig.Trace factory, ClusterFrontendConfig.Trace, and the
// migration OnPhase callback. Batch, phase and flush events are stamped
// with the monotonic clock and round events counted into their batch;
// spans stay in memory, are linked to their cause after the run (client op
// → flush or driver call → per-shard core batch → phase) and are written
// out at the end.

// clock stamps events as nanoseconds since its origin, on the monotonic
// clock.
type clock struct{ origin time.Time }

func newClock() clock { return clock{origin: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

type spanKind uint8

const (
	kindCall      spanKind = iota // a driver's batch call (Map or Cluster)
	kindMigration                 // one SplitShard/MergeShards call
	kindMigPhase                  // freeze, copy or cutover of a migration
	kindFlush                     // one collector flush
	kindBatch                     // one core batch on one machine
	kindPhase                     // one algorithm phase of a core batch
	kindClientOp                  // one client's single-op call
)

var kindLabels = []string{"call", "migration", "migrate_phase", "flush", "core_batch", "phase", "client_op"}

// span is one timed interval. n is the op count for calls, flushes and
// batches, and the PIM round count for phases. shard is the machine's
// shard id (-1 for a lone Map). For flushes, sub is the op count that
// reached the store after coalescing, wait the summed queue wait and
// maxWait the longest.
type span struct {
	kind       spanKind
	name       string
	shard      int32
	parent     int32
	start, end int64
	n          int64
	sub, wait  int64
	maxWait    int64
	rounds     roundAgg // core batches: the PIM rounds they ran
}

func (s *span) dur() int64 { return s.end - s.start }

// clientSpan is a client op's call interval; kept compact because there is
// one per op.
type clientSpan struct {
	start, end int64
	kind       opKind
}

// roundAgg accumulates per-round statistics of one machine.
type roundAgg struct {
	rounds, h, msgs, work, activeMods int64
}

func (r *roundAgg) add(o roundAgg) {
	r.rounds += o.rounds
	r.h += o.h
	r.msgs += o.msgs
	r.work += o.work
	r.activeMods += o.activeMods
}

// spanSink records one machine's event stream (and, installed on a Map
// driven by a Frontend, its flushes). The trace contract calls every method
// from the one goroutine driving the machine, so the sink needs no locks;
// its data is read only after that goroutine has finished.
type spanSink struct {
	clk     clock
	shard   int32
	batches []span
	phases  []span
	flushes []span
	open    int32 // index of the open batch, -1 if none
}

func newSpanSink(clk clock, shard int) *spanSink {
	return &spanSink{clk: clk, shard: int32(shard), open: -1}
}

// baseOp strips the "s<id>/" prefix the cluster adds to shard op names.
func baseOp(op string) string {
	if i := strings.IndexByte(op, '/'); i >= 0 {
		return op[i+1:]
	}
	return op
}

func (s *spanSink) BatchStart(op string, n int) {
	s.open = int32(len(s.batches))
	s.batches = append(s.batches, span{kind: kindBatch, name: baseOp(op), shard: s.shard,
		parent: -1, start: s.clk.now(), n: int64(n)})
}

func (s *spanSink) PhaseStart(op string, ph pimgo.TracePhase) {
	s.phases = append(s.phases, span{kind: kindPhase, name: ph.String(), shard: s.shard,
		parent: s.open, start: s.clk.now(), end: -1})
}

func (s *spanSink) PhaseEnd(sp pimgo.TraceSpan) {
	t := s.clk.now()
	p := &s.phases[len(s.phases)-1]
	p.end = t
	p.n = sp.Rounds
}

// RoundEnd counts the round into the open batch, whose span carries the
// time; rounds outside a batch are not attributed.
func (s *spanSink) RoundEnd(r pimgo.TraceRoundStat) {
	if s.open < 0 {
		return
	}
	a := &s.batches[s.open].rounds
	a.rounds++
	a.h += r.H
	a.msgs += r.TotalMsgs
	a.activeMods += int64(len(r.Mods))
	for _, m := range r.Mods {
		a.work += m.Work
	}
}

// Fault events do not occur: the workloads install no fault plan.
func (s *spanSink) Fault(pimgo.TraceFaultEvent) {}

func (s *spanSink) BatchEnd(op string, t pimgo.TraceTotals) {
	if s.open >= 0 {
		s.batches[s.open].end = s.clk.now()
	}
	s.open = -1
}

// Flush records one collector flush. The event arrives when the flush has
// finished; its start is the event time minus the flush's duration.
func (s *spanSink) Flush(fs pimgo.TraceFlushStat) {
	t := s.clk.now()
	s.flushes = append(s.flushes, span{kind: kindFlush, name: "flush", shard: -1, parent: -1,
		start: t - int64(fs.FlushTime), end: t, n: int64(fs.Ops), sub: int64(fs.Submitted),
		wait: int64(fs.QueueWait), maxWait: int64(fs.MaxQueueWait)})
}

// sinkSet owns every sink of a traced system. Shard sinks are created by
// the cluster's factory, possibly mid-run when a split adds a shard.
type sinkSet struct {
	clk   clock
	mu    sync.Mutex
	sinks []*spanSink
}

func (ss *sinkSet) newSink(shard int) *spanSink {
	s := newSpanSink(ss.clk, shard)
	ss.mu.Lock()
	ss.sinks = append(ss.sinks, s)
	ss.mu.Unlock()
	return s
}

// factory adapts newSink to ClusterConfig.Trace.
func (ss *sinkSet) factory(shard int) pimgo.TraceSink { return ss.newSink(shard) }

// countSink keeps only machine totals: it reads no clock and stores no
// spans. It is the untraced run's source of model costs on the one
// workload whose program exposes them no other way (a Frontend over a Map).
type countSink struct {
	batches, io, pimRound, rounds, cpuWork, cpuDepth atomic.Int64
}

func (c *countSink) BatchStart(string, int)              {}
func (c *countSink) PhaseStart(string, pimgo.TracePhase) {}
func (c *countSink) PhaseEnd(pimgo.TraceSpan)            {}
func (c *countSink) RoundEnd(pimgo.TraceRoundStat)       {}
func (c *countSink) Fault(pimgo.TraceFaultEvent)         {}
func (c *countSink) BatchEnd(_ string, t pimgo.TraceTotals) {
	c.batches.Add(1)
	c.io.Add(t.IOTime)
	c.pimRound.Add(t.PIMRoundTime)
	c.rounds.Add(t.Rounds)
	c.cpuWork.Add(t.CPUWork)
	c.cpuDepth.Add(t.CPUDepth)
}

func (c *countSink) totals() model {
	return model{batches: c.batches.Load(), io: c.io.Load(), pim: c.pimRound.Load(),
		rounds: c.rounds.Load(), cpuWork: c.cpuWork.Load(), cpuDepth: c.cpuDepth.Load()}
}

// spanRec is what a driver goroutine records in the traced run: its calls
// (or client ops), and migrations with their phases.
type spanRec struct {
	calls   []span
	clients []clientSpan
}

// traceData is a traced run's merged spans.
type traceData struct {
	all     []span // containers first (calls, migrations, phases, flushes), then batches, then phases
	clients []clientSpan
	p       int // modules per machine
}

// collect merges the drivers' and sinks' spans and links every span to its
// cause. Driver and flush spans form a laminar family (nested or disjoint
// intervals); a core batch's parent is the innermost of them containing its
// start, and a phase's parent is its batch. A client op's parent is the
// first flush that started after the op was called.
func collect(recs []*spanRec, ss *sinkSet, p int) *traceData {
	td := &traceData{p: p}
	var cont []span
	for _, r := range recs {
		cont = append(cont, r.calls...)
		td.clients = append(td.clients, r.clients...)
	}
	for _, s := range ss.sinks {
		cont = append(cont, s.flushes...)
	}
	slices.SortStableFunc(cont, func(a, b span) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(b.end, a.end) // the enclosing span first
	})
	td.all = cont
	nc := len(cont)
	for i := range cont {
		td.all[i].parent = int32(innermost(td.all[:i], td.all[i].start, td.all[i].end))
	}
	for _, s := range ss.sinks {
		for _, b := range s.batches {
			if b.end == 0 {
				b.end = b.start // a batch still open when the run stopped
			}
			b.parent = int32(innermost(td.all[:nc], b.start, b.start))
			td.all = append(td.all, b)
		}
	}
	// Phases: linked to their batch by the sink's own index.
	boff := int32(nc)
	for _, s := range ss.sinks {
		for _, ph := range s.phases {
			if ph.end < 0 {
				ph.end = ph.start
			}
			if ph.parent >= 0 {
				ph.parent += boff
			}
			td.all = append(td.all, ph)
		}
		boff += int32(len(s.batches))
	}
	slices.SortFunc(td.clients, func(a, b clientSpan) int { return cmp.Compare(a.start, b.start) })
	return td
}

// innermost returns the index of the innermost span in sorted (by start,
// enclosing first) that contains [s, e], or -1.
func innermost(sorted []span, s, e int64) int {
	i, _ := slices.BinarySearchFunc(sorted, s+1, func(x span, t int64) int { return cmp.Compare(x.start, t) })
	for i--; i >= 0; i-- {
		if sorted[i].start <= s && e <= sorted[i].end {
			return i
		}
		if sorted[i].parent < 0 && sorted[i].end < s {
			// A root that ended before s: no earlier span can contain s
			// unless it encloses this root, which a root has none of.
			return -1
		}
	}
	return -1
}

// flushOf returns the index in td.all of the flush serving a client op
// called at t: the first flush that started at or after t, if it started
// before the op returned.
func flushOf(flushes []int32, all []span, c clientSpan) int32 {
	i, _ := slices.BinarySearchFunc(flushes, c.start, func(fi int32, t int64) int { return cmp.Compare(all[fi].start, t) })
	if i < len(flushes) && all[flushes[i]].start <= c.end {
		return flushes[i]
	}
	return -1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children.
func selfTimes(all []span) []int64 {
	kids := make([][]int32, len(all))
	for i := range all {
		if p := all[i].parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make([]int64, len(all))
	var iv [][2]int64
	for i := range all {
		iv = iv[:0]
		for _, k := range kids[i] {
			iv = append(iv, [2]int64{all[k].start, all[k].end})
		}
		self[i] = all[i].dur() - covered(all[i].start, all[i].end, iv)
	}
	return self
}

// covered returns the length of [s, e] covered by the union of intervals
// iv (which it sorts).
func covered(s, e int64, iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var tot int64
	cur := s
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], e)
		if b > a {
			tot += b - a
			cur = b
		}
	}
	return tot
}

// write saves the spans as tab-separated lines: id, parent, kind, name,
// shard, start and end in ns since the run's clock origin, n, self time.
// Client ops follow with their flush as parent.
func (td *traceData) write(path string, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\tkind\tname\tshard\tstart_ns\tend_ns\tn\tself_ns")
	for i, s := range td.all {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.parent, kindLabels[s.kind], s.name, s.shard, s.start, s.end, s.n, self[i])
	}
	flushes := td.indexOf(kindFlush)
	for j, c := range td.clients {
		par := flushOf(flushes, td.all, c)
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t-1\t%d\t%d\t1\t%d\n", len(td.all)+j, par, kindLabels[kindClientOp], kindNames[c.kind], c.start, c.end, c.end-c.start-flushOverlap(td.all, par, c))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flushOverlap is the part of client op c's interval its flush covers.
func flushOverlap(all []span, par int32, c clientSpan) int64 {
	if par < 0 {
		return 0
	}
	return covered(c.start, c.end, [][2]int64{{all[par].start, all[par].end}})
}

// indexOf lists the indices of spans of kind k, in start order.
func (td *traceData) indexOf(k spanKind) []int32 {
	var out []int32
	for i := range td.all {
		if td.all[i].kind == k {
			out = append(out, int32(i))
		}
	}
	return out
}
