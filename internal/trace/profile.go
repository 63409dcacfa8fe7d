package trace

import (
	"fmt"
	"sort"
	"strings"
)

// PhaseTotals is the aggregated metric attribution of one phase within one
// operation kind.
type PhaseTotals struct {
	Phase Phase `json:"phase"`

	Spans        int64 `json:"spans"` // spans folded in (0 for a synthesized remainder)
	Rounds       int64 `json:"rounds"`
	IOTime       int64 `json:"io_time"`
	PIMRoundTime int64 `json:"pim_round_time"`
	TotalMsgs    int64 `json:"total_msgs"`
	CPUWork      int64 `json:"cpu_work"`
	CPUDepth     int64 `json:"cpu_depth"`
}

// MarshalText renders the phase name in JSON keys and dumps.
func (p Phase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a phase name written by MarshalText, so recorded
// profiles (results/BENCH_trace.json) round-trip through encoding/json.
func (p *Phase) UnmarshalText(b []byte) error {
	for i, name := range phaseNames {
		if name == string(b) {
			*p = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown phase %q", b)
}

func (pt *PhaseTotals) add(sp Span) {
	pt.Spans++
	pt.Rounds += sp.Rounds
	pt.IOTime += sp.IOTime
	pt.PIMRoundTime += sp.PIMRoundTime
	pt.TotalMsgs += sp.TotalMsgs
	pt.CPUWork += sp.CPUWork
	pt.CPUDepth += sp.CPUDepth
}

// BatchProfile is the per-phase breakdown of one completed batch operation
// (or, aggregated, of every batch of one op kind). Phases holds only the
// phases that occurred, in canonical Phases() order with the synthesized
// "other" remainder last, so for every decomposable metric the column sum
// over Phases equals the corresponding Totals field exactly.
type BatchProfile struct {
	Op      string        `json:"op"`
	Batches int64         `json:"batches"` // batch operations folded in
	Ops     int64         `json:"ops"`     // Σ batch sizes
	Totals  Totals        `json:"totals"`
	Phases  []PhaseTotals `json:"phases"`

	// Faults counts fault-layer events by kind (empty on fault-free runs).
	Faults map[string]int64 `json:"faults,omitempty"`
}

// phaseIdx returns the entry for ph, appending one if absent.
func (bp *BatchProfile) phase(ph Phase) *PhaseTotals {
	for i := range bp.Phases {
		if bp.Phases[i].Phase == ph {
			return &bp.Phases[i]
		}
	}
	bp.Phases = append(bp.Phases, PhaseTotals{Phase: ph})
	return &bp.Phases[len(bp.Phases)-1]
}

// sortPhases orders Phases canonically (Phases() order, "other" last).
func (bp *BatchProfile) sortPhases() {
	rank := func(p Phase) int {
		for i, q := range Phases() {
			if p == q {
				return i
			}
		}
		return len(phaseNames)
	}
	sort.Slice(bp.Phases, func(i, j int) bool {
		return rank(bp.Phases[i].Phase) < rank(bp.Phases[j].Phase)
	})
}

// finish folds the batch totals in and synthesizes the "other" remainder so
// phase columns sum exactly to the totals.
func (bp *BatchProfile) finish(t Totals) {
	bp.Batches++
	bp.Ops += int64(t.Batch)
	bp.Totals.Batch += t.Batch
	bp.Totals.Rounds += t.Rounds
	bp.Totals.IOTime += t.IOTime
	bp.Totals.PIMTime += t.PIMTime
	bp.Totals.PIMRoundTime += t.PIMRoundTime
	bp.Totals.TotalMsgs += t.TotalMsgs
	bp.Totals.TotalPIMWork += t.TotalPIMWork
	bp.Totals.SyncCost += t.SyncCost
	bp.Totals.CPUWork += t.CPUWork
	bp.Totals.CPUDepth += t.CPUDepth
	bp.Totals.CPUMem += t.CPUMem

	var sum Span
	for i := range bp.Phases {
		pt := &bp.Phases[i]
		if pt.Phase == PhaseOther {
			continue
		}
		sum.add(Span{Rounds: pt.Rounds, IOTime: pt.IOTime, PIMRoundTime: pt.PIMRoundTime,
			TotalMsgs: pt.TotalMsgs, CPUWork: pt.CPUWork, CPUDepth: pt.CPUDepth})
	}
	other := bp.phase(PhaseOther)
	other.Rounds = bp.Totals.Rounds - sum.Rounds
	other.IOTime = bp.Totals.IOTime - sum.IOTime
	other.PIMRoundTime = bp.Totals.PIMRoundTime - sum.PIMRoundTime
	other.TotalMsgs = bp.Totals.TotalMsgs - sum.TotalMsgs
	other.CPUWork = bp.Totals.CPUWork - sum.CPUWork
	other.CPUDepth = bp.Totals.CPUDepth - sum.CPUDepth
	bp.sortPhases()
}

// merge folds a completed batch profile into an op-kind aggregate.
func (bp *BatchProfile) merge(src *BatchProfile) {
	bp.Batches += src.Batches
	bp.Ops += src.Ops
	t := &bp.Totals
	s := src.Totals
	t.Batch += s.Batch
	t.Rounds += s.Rounds
	t.IOTime += s.IOTime
	t.PIMTime += s.PIMTime
	t.PIMRoundTime += s.PIMRoundTime
	t.TotalMsgs += s.TotalMsgs
	t.TotalPIMWork += s.TotalPIMWork
	t.SyncCost += s.SyncCost
	t.CPUWork += s.CPUWork
	t.CPUDepth += s.CPUDepth
	t.CPUMem += s.CPUMem
	for i := range src.Phases {
		sp := &src.Phases[i]
		dst := bp.phase(sp.Phase)
		dst.Spans += sp.Spans
		dst.Rounds += sp.Rounds
		dst.IOTime += sp.IOTime
		dst.PIMRoundTime += sp.PIMRoundTime
		dst.TotalMsgs += sp.TotalMsgs
		dst.CPUWork += sp.CPUWork
		dst.CPUDepth += sp.CPUDepth
	}
	for k, v := range src.Faults {
		if bp.Faults == nil {
			bp.Faults = make(map[string]int64)
		}
		bp.Faults[k] += v
	}
	bp.sortPhases()
}

// CheckSums verifies the decomposition invariant: for every decomposable
// metric the sum over Phases equals the Totals field. It returns a
// description of the first violation, or "" when the profile is exact
// (`pimbench trace` refuses to record a profile that fails this).
func (bp *BatchProfile) CheckSums() string {
	var sum Span
	for i := range bp.Phases {
		pt := &bp.Phases[i]
		sum.add(Span{Rounds: pt.Rounds, IOTime: pt.IOTime, PIMRoundTime: pt.PIMRoundTime,
			TotalMsgs: pt.TotalMsgs, CPUWork: pt.CPUWork, CPUDepth: pt.CPUDepth})
	}
	t := bp.Totals
	check := []struct {
		name      string
		got, want int64
	}{
		{"rounds", sum.Rounds, t.Rounds},
		{"io_time", sum.IOTime, t.IOTime},
		{"pim_round_time", sum.PIMRoundTime, t.PIMRoundTime},
		{"total_msgs", sum.TotalMsgs, t.TotalMsgs},
		{"cpu_work", sum.CPUWork, t.CPUWork},
		{"cpu_depth", sum.CPUDepth, t.CPUDepth},
	}
	for _, c := range check {
		if c.got != c.want {
			return fmt.Sprintf("%s/%s: phase sum %d != total %d", bp.Op, c.name, c.got, c.want)
		}
	}
	return ""
}

// Profile is the aggregating Sink: it folds every span into a per-(op,
// phase) breakdown, keeps the most recent completed batch as a snapshot
// (Map.LastProfile), and accumulates per-op aggregates across batches.
// Like every sink it is driven from one goroutine; it is not safe for
// concurrent use.
type Profile struct {
	cur  *BatchProfile            // open batch, nil between batches
	last *BatchProfile            // most recent completed batch
	ops  map[string]*BatchProfile // aggregates by op kind
	keys []string                 // op kinds in first-seen order

	rounds int64 // machine rounds observed (incl. recovery sub-rounds)

	// collector aggregates frontend flush events (frontend.go); populated
	// only when the profile is a Frontend's Map sink or a ClusterFrontend's
	// sink.
	collector CollectorTotals

	// migration aggregates cluster rebalancing events (migration.go);
	// populated only when the profile observes a cluster shard that takes
	// part in a split/merge migration.
	migration MigrationTotals

	// checkpoint aggregates journal folds (checkpoint.go); populated only
	// when the profile observes a cluster shard.
	checkpoint CheckpointTotals

	// rebalance aggregates control-loop decisions (rebalance.go); populated
	// only when the profile observes a ClusterFrontend whose background
	// rebalance loop is running.
	rebalance RebalanceTotals
}

// NewProfile returns an empty profile sink.
func NewProfile() *Profile {
	return &Profile{ops: make(map[string]*BatchProfile)}
}

// BatchStart implements Sink. An unfinished previous batch (aborted by a
// batch error) is discarded.
func (p *Profile) BatchStart(op string, n int) {
	p.cur = &BatchProfile{Op: op}
}

// PhaseStart implements Sink (attribution happens at PhaseEnd).
func (p *Profile) PhaseStart(op string, ph Phase) {}

// PhaseEnd implements Sink.
func (p *Profile) PhaseEnd(sp Span) {
	if p.cur == nil {
		return
	}
	p.cur.phase(sp.Phase).add(sp)
}

// RoundEnd implements Sink.
func (p *Profile) RoundEnd(r RoundStat) { p.rounds++ }

// Fault implements Sink.
func (p *Profile) Fault(ev FaultEvent) {
	if p.cur == nil {
		return
	}
	if p.cur.Faults == nil {
		p.cur.Faults = make(map[string]int64)
	}
	p.cur.Faults[ev.Kind.String()]++
}

// BatchEnd implements Sink: the open batch becomes the Last snapshot and
// folds into the op-kind aggregate.
func (p *Profile) BatchEnd(op string, t Totals) {
	if p.cur == nil {
		return
	}
	p.cur.finish(t)
	p.last = p.cur
	p.cur = nil
	agg, ok := p.ops[op]
	if !ok {
		agg = &BatchProfile{Op: op}
		p.ops[op] = agg
		p.keys = append(p.keys, op)
	}
	agg.merge(p.last)
}

// Last returns the profile of the most recently completed batch, or nil if
// none has completed. The returned snapshot is owned by the caller's
// reading; it is replaced (not mutated) by the next batch.
func (p *Profile) Last() *BatchProfile { return p.last }

// Rounds returns the total rounds observed (including recovery sub-rounds
// of faulted runs).
func (p *Profile) Rounds() int64 { return p.rounds }

// ByOp returns the cross-batch aggregate for each op kind, in first-seen
// order.
func (p *Profile) ByOp() []*BatchProfile {
	out := make([]*BatchProfile, 0, len(p.keys))
	for _, k := range p.keys {
		out = append(out, p.ops[k])
	}
	return out
}

// String renders the per-op, per-phase breakdown as an aligned table (the
// `pimbench trace` output).
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-9s %8s %10s %10s %12s %12s %10s\n",
		"op", "phase", "rounds", "io", "pimRound", "msgs", "cpuWork", "cpuDepth")
	for _, bp := range p.ByOp() {
		for i := range bp.Phases {
			pt := &bp.Phases[i]
			fmt.Fprintf(&b, "%-12s %-9s %8d %10d %10d %12d %12d %10d\n",
				bp.Op, pt.Phase, pt.Rounds, pt.IOTime, pt.PIMRoundTime,
				pt.TotalMsgs, pt.CPUWork, pt.CPUDepth)
		}
		t := bp.Totals
		fmt.Fprintf(&b, "%-12s %-9s %8d %10d %10d %12d %12d %10d   (batches=%d ops=%d pim=%d mem=%d)\n",
			bp.Op, "TOTAL", t.Rounds, t.IOTime, t.PIMRoundTime, t.TotalMsgs,
			t.CPUWork, t.CPUDepth, bp.Batches, bp.Ops, t.PIMTime, t.CPUMem)
	}
	return b.String()
}
