package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pimgo"
)

// The four workloads. Each builds its system (machine construction plus
// prefill, the set-up that setup_s times), then drives closed-loop traffic
// from one process until told to stop, checking every reply.

const (
	modules    = 16              // simulated PIM modules per workload
	shards     = 4               // cluster workloads: shards at construction
	batchOps   = 1024            // ops per batch on the batch-API workloads
	clients    = 64              // client goroutines on the frontend workloads
	prefillLen = 1 << 16         // keys per prefill Upsert batch
	warmOps    = 100             // frontend workloads: untimed ops per client, then
	warmFor    = 2 * time.Second // untimed traffic for this long

	// elastic-churn: a migration every migrateEvery batches (counting the
	// injected ones), with injectBatches batches at each OnPhase boundary.
	migrateEvery  = 1024
	injectBatches = 2
	// elastic-churn checkpoints each shard's journal every churnCompactEvery
	// journaled sub-batches, half the default of 64. At the default the
	// calls that carry a checkpoint hold about 1.2% of the ops, so a
	// window's p99 landed above or below the latency gap beneath them
	// depending on how many such calls the window held; at 32 they hold
	// about 2.4%, and every window's p99 is a checkpoint call's latency.
	churnCompactEvery = 32
	// The single-driver workloads warm up for a fixed number of untimed
	// batches (about two seconds of map-batch: its throughput still climbs
	// for a while after set-up), then take their model costs over their
	// first so many timed batches, so both repeat exactly for a seed.
	mapWarmBatches    = 1024
	churnWarmBatches  = 256
	mapModelBatches   = 1024
	churnModelBatches = 2176

	// machineSeed seeds every machine. It is fixed: the workload seed
	// varies the inputs only, not the system under test.
	machineSeed = 0x5EED
)

type workloadDef struct {
	name  string
	why   string
	build func(cfg buildCfg) (*system, error)
}

var workloads = []workloadDef{
	{"map-batch", "core.Map batch API, one driver: pim, cpu and core only; model costs repeat exactly", buildMapBatch},
	{"frontend-64", "64 clients through Frontend over one Map: adds the collector's intake, gather and reply wake", buildFrontend},
	{"cluster-frontend-64", "64 clients through ClusterFrontend over 4 shards: adds scatter/gather, broadcast, journal and checkpoints", buildClusterFrontend},
	{"elastic-churn", "Cluster batch API, write-heavy, with scheduled split/merge migrations and traffic injected mid-migration", buildElasticChurn},
}

// buildCfg carries what every build needs.
type buildCfg struct {
	seed   uint64
	shared []uint64
	traced bool
	clk    clock
}

// model is a set of machine totals (simulated): the paper's metrics summed
// over every core batch the machines ran, including checkpoint and
// migration work. pim is the sum of per-round maxima of module work
// (PIMRoundTime), the PIM time that adds up across batches and machines.
type model struct {
	batches, io, pim, rounds, cpuWork, cpuDepth int64
}

func (m model) sub(o model) model {
	return model{m.batches - o.batches, m.io - o.io, m.pim - o.pim, m.rounds - o.rounds,
		m.cpuWork - o.cpuWork, m.cpuDepth - o.cpuDepth}
}

func (m *model) addStats(st pimgo.BatchStats) {
	m.batches++
	m.io += st.IOTime
	m.pim += st.PIMRoundTime
	m.rounds += st.Rounds
	m.cpuWork += st.CPUWork
	m.cpuDepth += st.CPUDepth
}

// migration records one elastic-churn migration: its phase times on the
// host (freeze, copy, cutover, excluding injected traffic) and its report.
type migration struct {
	freeze, copy, cutover int64 // ns
	keysCopied, suffix    int
	io                    int64
}

// system is one built workload, ready to drive.
type system struct {
	p           int // modules per machine
	ops         *counters
	fail        failures
	lats        []*latLog
	recs        []*spanRec // traced only, one per driver
	sinks       *sinkSet   // traced only
	t0          int64      // start of the timed run; set before start
	timing      atomic.Bool
	stop        atomic.Bool
	wg          sync.WaitGroup
	prefillKeys int
	prefill     [2]int64 // traced only: prefill interval on the clock

	// warm runs the untimed warm-up; start launches the timed drivers.
	warm  func()
	start func()
	// model returns the machines' totals now (workloads without a
	// modelTarget).
	model func() model
	// close releases the system after the drivers stopped.
	close func()

	// The single-driver workloads (modelTarget set) take their model costs
	// over a fixed op count: the driver fills the model window when its op
	// count reaches the target, then sets modelDone.
	modelTarget bool
	modelDone   atomic.Bool
	modelWin    model
	modelOps    int64
	migsInWin   int

	// Cluster workloads.
	cluster     *pimgo.Cluster[uint64, int64]
	migrations  []migration
	journalMax  atomic.Int64
	samplerStop chan struct{}
	samplerDone chan struct{}
}

func newSystem(cfg buildCfg, drivers, p int) *system {
	s := &system{p: p, ops: newCounters(drivers)}
	for i := 0; i < drivers; i++ {
		s.lats = append(s.lats, &latLog{})
	}
	if cfg.traced {
		s.sinks = &sinkSet{clk: cfg.clk}
		for i := 0; i < drivers; i++ {
			s.recs = append(s.recs, &spanRec{})
		}
	}
	return s
}

// prefillBatches returns the set-up keys in Upsert batches of prefillLen:
// the shared region, then each client's initially present churn keys.
func prefillBatches(cfg buildCfg, nClients, span int, m mix) (keys [][]uint64, vals [][]int64, n int) {
	all := append([]uint64(nil), cfg.shared...)
	for c := 0; c < nClients; c++ {
		base := churnBase(c, span)
		for off, ok := range initialChurn(c, span, m) {
			if ok {
				all = append(all, base+uint64(off))
			}
		}
	}
	for off := 0; off < len(all); off += prefillLen {
		k := all[off:min(off+prefillLen, len(all))]
		v := make([]int64, len(k))
		for i, x := range k {
			v[i] = int64(x)
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals, len(all)
}

// prefill runs the set-up Upserts through upsert, recording the interval
// on the clock in a traced build.
func (s *system) prefillWith(cfg buildCfg, nClients, span int, m mix, upsert func(k []uint64, v []int64) error) error {
	keys, vals, n := prefillBatches(cfg, nClients, span, m)
	s.prefillKeys = n
	s.prefill[0] = cfg.clk.now()
	for i := range keys {
		if err := upsert(keys[i], vals[i]); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	s.prefill[1] = cfg.clk.now()
	return nil
}

// window is the index of the latency window a call ending at t falls in.
func (s *system) window(t int64) int64 { return (t - s.t0) / int64(latWindow) }

// record logs one call that carried n ops and took [t0, t1] on the clock.
func (s *system) record(d int, clk clock, name string, t0, t1 int64, n int) {
	s.lats[d].add(t1-t0, n, s.window(t1))
	s.ops.add(d, int64(n))
	if s.recs != nil {
		s.recs[d].calls = append(s.recs[d].calls, span{kind: kindCall, name: name, shard: -1,
			start: t0, end: t1, n: int64(n)})
	}
}

// ---- map-batch -------------------------------------------------------------

func buildMapBatch(cfg buildCfg) (*system, error) {
	s := newSystem(cfg, 1, modules)
	s.modelTarget = true
	mc := pimgo.Config{P: modules, Seed: machineSeed}
	if cfg.traced {
		mc.Trace = s.sinks.newSink(-1)
	}
	m, err := pimgo.TryNewMap[uint64, int64](mc, pimgo.Uint64Hash)
	if err != nil {
		return nil, err
	}
	err = s.prefillWith(cfg, 1, churnTotal, readMostly, func(k []uint64, v []int64) error {
		_, _, err := m.TryUpsert(k, v)
		return err
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &mapDriver{s: s, m: m, clk: cfg.clk, shared: cfg.shared,
		st:  newStream(cfg.seed, 0, readMostly, cfg.shared, churnTotal),
		orc: oracle{present: initialChurn(0, churnTotal, readMostly)},
		b:   newBatch(batchOps, churnTotal)}
	s.warm = func() {
		for i := 0; i < mapWarmBatches; i++ {
			d.step(false)
		}
	}
	s.start = func() {
		d.acc = model{}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var done int64
			for !s.stop.Load() {
				done += int64(d.step(true))
				if !s.modelDone.Load() && done >= mapModelBatches*batchOps {
					s.modelWin, s.modelOps = d.acc, done
					s.modelDone.Store(true)
				}
			}
		}()
	}
	s.close = m.Close
	return s, nil
}

type mapDriver struct {
	s      *system
	m      *pimgo.Map[uint64, int64]
	clk    clock
	shared []uint64
	st     *stream
	orc    oracle
	b      *batch
	acc    model
	bres   []bool
	gres   []pimgo.GetResult[int64]
	sres   []pimgo.SearchResult[uint64, int64]
}

// step runs one 1024-op batch as four kind-split calls — writes before
// reads, as the frontend orders them — checks every reply, and returns the
// op count.
func (d *mapDriver) step(timed bool) int {
	b := d.b
	b.fill(d.st, batchOps)
	s := d.s
	for k := opUpsert; k <= opDelete; k++ {
		if len(b.keys[k]) == 0 {
			continue
		}
		t0 := d.clk.now()
		var res []bool
		var st pimgo.BatchStats
		var err error
		if k == opUpsert {
			res, st, err = d.m.TryUpsertInto(b.keys[k], b.vals, d.bres)
		} else {
			res, st, err = d.m.TryDeleteInto(b.keys[k], d.bres)
		}
		t1 := d.clk.now()
		d.bres = res
		d.finish(timed, k, t0, t1, st, err)
		if err == nil {
			for i, o := range b.ops[k] {
				var want bool
				if k == opUpsert {
					want = d.orc.upsert(o.off)
				} else {
					want = d.orc.delete(o.off)
				}
				if res[i] != want {
					s.fail.add(1, fmt.Sprintf("%s(%d) = %v, oracle %v", kindNames[k], o.key, res[i], want))
				}
			}
		}
	}
	if n := len(b.keys[opGet]); n > 0 {
		t0 := d.clk.now()
		res, st, err := d.m.TryGetInto(b.keys[opGet], d.gres)
		t1 := d.clk.now()
		d.gres = res
		d.finish(timed, opGet, t0, t1, st, err)
		if err == nil {
			for i, o := range b.ops[opGet] {
				if !checkGet(d.shared, o.key, res[i].Found, res[i].Value) {
					s.fail.add(1, fmt.Sprintf("get(%d) = %+v", o.key, res[i]))
				}
			}
		}
	}
	if n := len(b.keys[opSucc]); n > 0 {
		t0 := d.clk.now()
		res, st, err := d.m.TrySuccessorInto(b.keys[opSucc], d.sres)
		t1 := d.clk.now()
		d.sres = res
		d.finish(timed, opSucc, t0, t1, st, err)
		if err == nil {
			for i, o := range b.ops[opSucc] {
				if !checkSucc(d.shared, o.key, res[i].Found, res[i].Key, res[i].Value) {
					s.fail.add(1, fmt.Sprintf("successor(%d) = %+v", o.key, res[i]))
				}
			}
		}
	}
	return b.size()
}

func (d *mapDriver) finish(timed bool, k opKind, t0, t1 int64, st pimgo.BatchStats, err error) {
	n := len(d.b.keys[k])
	if err != nil {
		d.s.fail.add(int64(n), fmt.Sprintf("%s batch: %v", kindNames[k], err))
	}
	if timed {
		d.acc.addStats(st)
		d.s.record(0, d.clk, kindNames[k], t0, t1, n)
	}
}

// ---- frontend-64 and cluster-frontend-64 ---------------------------------

// pointAPI is the single-key surface both frontends share.
type pointAPI interface {
	Get(uint64) (pimgo.GetResult[int64], error)
	Upsert(uint64, int64) (bool, error)
	Delete(uint64) (bool, error)
	Successor(uint64) (pimgo.SearchResult[uint64, int64], error)
}

const clientChurn = churnTotal / clients // churn keys per frontend client

func buildFrontend(cfg buildCfg) (*system, error) {
	s := newSystem(cfg, clients, modules)
	mc := pimgo.Config{P: modules, Seed: machineSeed}
	var cs *countSink
	if cfg.traced {
		mc.Trace = s.sinks.newSink(-1) // also receives the flushes
	} else {
		cs = &countSink{}
		mc.Trace = cs
	}
	m, err := pimgo.TryNewMap[uint64, int64](mc, pimgo.Uint64Hash)
	if err != nil {
		return nil, err
	}
	err = s.prefillWith(cfg, clients, clientChurn, readMostly, func(k []uint64, v []int64) error {
		_, _, err := m.TryUpsert(k, v)
		return err
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	f := pimgo.NewFrontend(m, pimgo.FrontendConfig{})
	if cs != nil {
		s.model = cs.totals
	} else {
		// The traced run reports no model costs; any snapshot will do.
		s.model = func() model { return model{} }
	}
	startClients(s, cfg, f)
	s.close = func() {
		f.Close()
		m.Close()
	}
	return s, nil
}

func buildClusterFrontend(cfg buildCfg) (*system, error) {
	s := newSystem(cfg, clients, modules/shards)
	cc := pimgo.ClusterConfig{Shards: shards, Seed: machineSeed, Shard: pimgo.Config{P: modules / shards}}
	var fc pimgo.ClusterFrontendConfig
	if cfg.traced {
		cc.Trace = s.sinks.factory
		fc.Trace = s.sinks.newSink(-1)
	}
	c, err := pimgo.NewCluster[uint64, int64](cc, pimgo.Uint64Hash)
	if err != nil {
		return nil, err
	}
	if err := s.prefillWith(cfg, clients, clientChurn, readMostly, clusterUpsert(c)); err != nil {
		c.Close()
		return nil, err
	}
	s.cluster = c
	s.model = func() model { return clusterModel(c) }
	f := pimgo.NewClusterFrontend(c, fc)
	startClients(s, cfg, f)
	s.close = func() {
		f.Close()
		c.Close()
	}
	return s, nil
}

// clusterUpsert returns a checked batch Upsert on c.
func clusterUpsert(c *pimgo.Cluster[uint64, int64]) func([]uint64, []int64) error {
	return func(k []uint64, v []int64) error {
		_, errs, _, err := c.TryUpsert(k, v)
		if err != nil {
			return err
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}
}

// clusterModel sums the machine totals of every shard ever created: the
// client-batch account (which folds in checkpoint and recovery work) plus
// the migration account.
func clusterModel(c *pimgo.Cluster[uint64, int64]) model {
	var m model
	for i := 0; i < c.Shards(); i++ {
		st := c.ShardStats(i)
		m.batches += st.Batches
		for _, a := range []pimgo.BatchStats{st.Total, st.Migration} {
			m.io += a.IOTime
			m.pim += a.PIMRoundTime
			m.rounds += a.Rounds
			m.cpuWork += a.CPUWork
			m.cpuDepth += a.CPUDepth
		}
	}
	return m
}

// startClients wires warm and start for the 64 closed-loop clients: warm
// launches them and returns once each has run warmOps ops and warmFor has
// passed; start turns timing on (latency samples and traced spans are kept
// from then on).
func startClients(s *system, cfg buildCfg, f pointAPI) {
	warmed := make(chan struct{}, clients)
	s.warm = func() {
		for c := 0; c < clients; c++ {
			s.wg.Add(1)
			go func(c int) {
				defer s.wg.Done()
				runClient(s, cfg, f, c, warmed)
			}(c)
		}
		for c := 0; c < clients; c++ {
			<-warmed
		}
		time.Sleep(warmFor)
	}
	s.start = func() { s.timing.Store(true) }
}

func runClient(s *system, cfg buildCfg, f pointAPI, c int, warmed chan<- struct{}) {
	st := newStream(cfg.seed, c, readMostly, cfg.shared, clientChurn)
	orc := oracle{present: initialChurn(c, clientChurn, readMostly)}
	clk := cfg.clk
	lat := s.lats[c]
	var o op
	for i := 0; !s.stop.Load(); i++ {
		if i == warmOps {
			warmed <- struct{}{}
		}
		st.next(&o)
		t0 := clk.now()
		ok := true
		var err error
		switch o.kind {
		case opGet:
			var r pimgo.GetResult[int64]
			r, err = f.Get(o.key)
			ok = checkGet(cfg.shared, o.key, r.Found, r.Value)
		case opSucc:
			var r pimgo.SearchResult[uint64, int64]
			r, err = f.Successor(o.key)
			ok = checkSucc(cfg.shared, o.key, r.Found, r.Key, r.Value)
		case opUpsert:
			var ins bool
			ins, err = f.Upsert(o.key, o.val)
			ok = ins == orc.upsert(o.off)
		case opDelete:
			var was bool
			was, err = f.Delete(o.key)
			ok = was == orc.delete(o.off)
		}
		t1 := clk.now()
		if err != nil || !ok {
			s.fail.add(1, fmt.Sprintf("client %d: %s(%d): err=%v", c, kindNames[o.kind], o.key, err))
		}
		s.ops.add(c, 1)
		if s.timing.Load() {
			lat.add(t1-t0, 1, s.window(t1))
			if s.recs != nil {
				s.recs[c].clients = append(s.recs[c].clients, clientSpan{start: t0, end: t1, kind: o.kind})
			}
		}
	}
}

// ---- elastic-churn --------------------------------------------------------

// churnSchedule is elastic-churn's migration plan. It is a function of the
// batch count alone: migration i (0-based) is due once every batch before
// batch (i+1)·every has been issued, counting injected batches; even i
// splits, odd i merges the shard the previous split created back into its
// source, so the cluster alternates between 4 and 5 active shards.
type churnSchedule struct{ every int64 }

// due reports whether migration number done is due after batches batches,
// and whether it is a split.
func (c churnSchedule) due(batches int64, done int) (due, split bool) {
	return batches >= int64(done+1)*c.every, done%2 == 0
}

func buildElasticChurn(cfg buildCfg) (*system, error) {
	s := newSystem(cfg, 1, modules/shards)
	s.modelTarget = true
	cc := pimgo.ClusterConfig{Shards: shards, Seed: machineSeed, Shard: pimgo.Config{P: modules / shards},
		CompactEvery: churnCompactEvery}
	if cfg.traced {
		cc.Trace = s.sinks.factory
	}
	c, err := pimgo.NewCluster[uint64, int64](cc, pimgo.Uint64Hash)
	if err != nil {
		return nil, err
	}
	if err := s.prefillWith(cfg, 1, churnTotal, writeHeavy, clusterUpsert(c)); err != nil {
		c.Close()
		return nil, err
	}
	s.cluster = c
	s.model = func() model { return clusterModel(c) }
	d := &churnDriver{s: s, c: c, clk: cfg.clk, shared: cfg.shared,
		st:    newStream(cfg.seed, 0, writeHeavy, cfg.shared, churnTotal),
		orc:   oracle{present: initialChurn(0, churnTotal, writeHeavy)},
		b:     newBatch(batchOps, churnTotal),
		sched: churnSchedule{every: migrateEvery}}
	s.warm = func() {
		for i := 0; i < churnWarmBatches; i++ {
			d.step(false)
		}
	}
	s.start = func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			m0 := s.model()
			for !s.stop.Load() {
				if due, split := d.sched.due(d.batches, d.migs); due {
					d.migrate(split)
				}
				d.step(true)
				if !s.modelDone.Load() && d.batches >= churnModelBatches {
					s.modelWin, s.modelOps, s.migsInWin = s.model().sub(m0), d.batches*batchOps, d.migs
					s.modelDone.Store(true)
				}
			}
		}()
	}
	s.close = func() { c.Close() }
	return s, nil
}

type churnDriver struct {
	s       *system
	c       *pimgo.Cluster[uint64, int64]
	clk     clock
	shared  []uint64
	st      *stream
	orc     oracle
	b       *batch
	sched   churnSchedule
	batches int64 // timed batches issued, including injected ones
	migs    int   // migrations run
	lastSrc int   // the last split's source shard
	lastNew int   // and the shard it created
}

// step runs one batch through the Cluster batch API, kind-split, writes
// first, checking every reply.
func (d *churnDriver) step(timed bool) {
	b := d.b
	b.fill(d.st, batchOps)
	s := d.s
	fail := func(k opKind, i int, msg string) {
		s.fail.add(1, fmt.Sprintf("%s(%d): %s", kindNames[k], b.ops[k][i].key, msg))
	}
	call := func(k opKind, run func() ([]error, error), check func(i int) bool) {
		n := len(b.keys[k])
		if n == 0 {
			return
		}
		t0 := d.clk.now()
		errs, err := run()
		t1 := d.clk.now()
		if timed {
			s.record(0, d.clk, kindNames[k], t0, t1, n)
		}
		if err != nil {
			s.fail.add(int64(n), fmt.Sprintf("%s batch: %v", kindNames[k], err))
			return
		}
		for i := 0; i < n; i++ {
			if errs != nil && errs[i] != nil {
				fail(k, i, errs[i].Error())
			} else if !check(i) {
				fail(k, i, "wrong reply")
			}
		}
	}
	var bres []bool
	call(opUpsert, func() ([]error, error) {
		r, errs, _, err := d.c.TryUpsert(b.keys[opUpsert], b.vals)
		bres = r
		return errs, err
	}, func(i int) bool { return bres[i] == d.orc.upsert(b.ops[opUpsert][i].off) })
	call(opDelete, func() ([]error, error) {
		r, errs, _, err := d.c.TryDelete(b.keys[opDelete])
		bres = r
		return errs, err
	}, func(i int) bool { return bres[i] == d.orc.delete(b.ops[opDelete][i].off) })
	var gres []pimgo.GetResult[int64]
	call(opGet, func() ([]error, error) {
		r, errs, _, err := d.c.TryGet(b.keys[opGet])
		gres = r
		return errs, err
	}, func(i int) bool {
		return checkGet(d.shared, b.ops[opGet][i].key, gres[i].Found, gres[i].Value)
	})
	var sres []pimgo.SearchResult[uint64, int64]
	call(opSucc, func() ([]error, error) {
		r, errs, _, err := d.c.TrySuccessor(b.keys[opSucc])
		sres = r
		return errs, err
	}, func(i int) bool {
		r := sres[i]
		return checkSucc(d.shared, b.ops[opSucc][i].key, r.Found, r.Key, r.Value)
	})
	if timed {
		d.batches++
	}
}

// migrate runs the next scheduled migration, injecting injectBatches
// batches at each OnPhase boundary. Phase times exclude the injected
// traffic: freeze runs from the call to the copy callback, copy from the
// copy callback's return to the catch-up callback, cutover from the
// catch-up callback's return to the call's return.
func (d *churnDriver) migrate(split bool) {
	s := d.s
	marks := make([]int64, 0, 4)
	opts := &pimgo.ClusterMigrateOpts{OnPhase: func(string) {
		marks = append(marks, d.clk.now())
		for i := 0; i < injectBatches; i++ {
			d.step(true)
		}
		marks = append(marks, d.clk.now())
	}}
	t0 := d.clk.now()
	var rep pimgo.ClusterMigrationReport
	var err error
	name := "split"
	if split {
		src := d.splitSource()
		var tgt int
		tgt, rep, err = d.c.SplitShard(src, opts)
		d.lastSrc, d.lastNew = src, tgt
	} else {
		name = "merge"
		rep, err = d.c.MergeShards(d.lastSrc, d.lastNew, opts)
	}
	t1 := d.clk.now()
	d.migs++
	if err != nil || len(marks) != 4 {
		s.fail.add(1, fmt.Sprintf("%s migration %d: %v (%d phase callbacks)", name, d.migs, err, len(marks)/2))
		return
	}
	bounds := [][2]int64{{t0, marks[0]}, {marks[1], marks[2]}, {marks[3], t1}}
	s.migrations = append(s.migrations, migration{
		freeze: bounds[0][1] - bounds[0][0], copy: bounds[1][1] - bounds[1][0], cutover: bounds[2][1] - bounds[2][0],
		keysCopied: rep.KeysCopied, suffix: rep.SuffixBatches, io: rep.Stats.IOTime})
	if s.recs != nil {
		rec := s.recs[0]
		rec.calls = append(rec.calls, span{kind: kindMigration, name: name, shard: -1, start: t0, end: t1})
		for i, ph := range []string{"freeze", "copy", "cutover"} {
			rec.calls = append(rec.calls, span{kind: kindMigPhase, name: ph, shard: -1, start: bounds[i][0], end: bounds[i][1]})
		}
	}
}

// splitSource picks the split's source: the active shards in id order,
// round-robin by split number.
func (d *churnDriver) splitSource() int {
	var active []int
	for i := 0; i < d.c.Shards(); i++ {
		if d.c.ShardStats(i).State == pimgo.ShardRunning {
			active = append(active, i)
		}
	}
	return active[(d.migs/2)%len(active)]
}

// sampleJournal polls the shards' journal length until stopped, keeping the
// largest seen (traced cluster runs only).
func (s *system) sampleJournal() {
	s.samplerStop = make(chan struct{})
	s.samplerDone = make(chan struct{})
	go func() {
		defer close(s.samplerDone)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.samplerStop:
				return
			case <-t.C:
				for i := 0; i < s.cluster.Shards(); i++ {
					if j := int64(s.cluster.ShardStats(i).JournalOps); j > s.journalMax.Load() {
						s.journalMax.Store(j)
					}
				}
			}
		}
	}()
}
