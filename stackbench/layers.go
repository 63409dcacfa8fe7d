package main

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// layerIn is what the per-layer report needs besides the spans.
type layerIn struct {
	td          *traceData
	self        []int64 // self time of each span in td.all
	t0, t1      int64   // the traced run's timed window on the clock
	ops         int64   // client ops completed in the window
	prefill     [2]int64
	prefillKeys int
	cluster     bool
	ckptIO      int64 // ShardStats.Recovery IO time over the window
	journalMax  int64
	migrations  []migration
	migCount    int
	overhead    float64
}

// perLayer computes every per-layer metric of a traced run. Metrics of a
// layer the workload does not exercise are reported as 0.
func perLayer(in layerIn) []metric {
	td := in.td
	all := td.all
	self := in.self
	inWin := func(s *span) bool { return s.start >= in.t0 && s.start < in.t1 }
	ops := float64(max(in.ops, 1))
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// Core batches and phases in the window.
	byOp := map[string][]int64{}
	sizeSum := map[string]int64{}
	var busySum int64
	var ckpt, ckptNS, batchNS, prefixNS, prefillNS int64
	rounds := roundAgg{}
	firstRound := map[int32]int64{} // batch index → start of its first phase with rounds
	phaseNS := map[string]int64{}
	var pimNS, pimRounds int64
	for i := range all {
		s := &all[i]
		switch s.kind {
		case kindBatch:
			if s.name == "upsert" && s.start >= in.prefill[0] && s.end <= in.prefill[1] {
				prefillNS += s.dur()
			}
			if !inWin(s) {
				continue
			}
			busySum += s.dur()
			rounds.add(s.rounds)
			if s.name == "all_pairs" {
				if s.parent < 0 || all[s.parent].kind != kindMigPhase {
					ckpt++
					ckptNS += s.dur()
				}
				continue
			}
			byOp[s.name] = append(byOp[s.name], s.dur())
			sizeSum[s.name] += s.n
		case kindPhase:
			if s.parent < 0 || !inWin(&all[s.parent]) || all[s.parent].name == "all_pairs" {
				continue
			}
			phaseNS[s.name] += s.dur()
			switch s.name {
			case "search", "execute", "rebuild":
				pimNS += s.dur()
				pimRounds += s.n
			}
			if _, ok := firstRound[s.parent]; !ok && s.n > 0 {
				firstRound[s.parent] = s.start
			}
		}
	}
	for i := range all {
		s := &all[i]
		if s.kind != kindBatch || !inWin(s) || s.name == "all_pairs" {
			continue
		}
		batchNS += s.dur()
		if fr, ok := firstRound[int32(i)]; ok {
			prefixNS += fr - s.start
		} else {
			prefixNS += s.dur()
		}
	}

	// pim
	add("pim.h_per_round", ratio(rounds.h, rounds.rounds), "words")
	add("pim.msgs_per_op", float64(rounds.msgs)/ops, "words/op")
	add("pim.module_work_per_op", float64(rounds.work)/ops, "work/op")
	add("pim.active_module_frac", ratio(rounds.activeMods, rounds.rounds*int64(td.p)), "fraction")
	add("pim.host_us_per_round", us(1)*ratio(pimNS, pimRounds), "us")

	// cpu
	add("cpu.sort_us_per_op", us(phaseNS["sort"])/ops, "us/op")
	add("cpu.semisort_us_per_op", us(phaseNS["semisort"])/ops, "us/op")
	add("cpu.contract_us_per_op", us(phaseNS["contract"])/ops, "us/op")

	// core
	for _, k := range kindNames {
		d := byOp[k]
		add("core."+k+".batch_us", us(1)*p50(d), "us")
	}
	for _, k := range kindNames {
		add("core."+k+".batch_size", ratio(sizeSum[k], int64(len(byOp[k]))), "ops")
	}
	for _, ph := range []string{"search", "execute", "rebuild"} {
		add("core."+ph+"_us_per_op", us(phaseNS[ph])/ops, "us/op")
	}
	add("core.prep_share", ratio(prefixNS, batchNS), "fraction")
	add("core.prefill_us_per_key", us(prefillNS)/float64(max(in.prefillKeys, 1)), "us/key")

	// frontend
	var fl, fops, fsub, fwait, fmax, fdur, fself int64
	for i := range all {
		s := &all[i]
		if s.kind != kindFlush || !inWin(s) {
			continue
		}
		fl++
		fops += s.n
		fsub += s.sub
		fwait += s.wait
		fmax = max(fmax, s.maxWait)
		fdur += s.dur()
		fself += self[i]
	}
	// Reply wake: from the end of the core batch that answered a client op
	// (the last shard's, on a cluster) to the client's return. A read is
	// answered when its sub-batch ends, before the flush finishes, so the
	// flush's end would overstate the answer time.
	answered := map[int32]*[numKinds]int64{}
	for i := range all {
		s := &all[i]
		if s.kind != kindBatch || s.parent < 0 || all[s.parent].kind != kindFlush {
			continue
		}
		k, ok := kindOf(s.name)
		if !ok {
			continue
		}
		a := answered[s.parent]
		if a == nil {
			a = &[numKinds]int64{}
			answered[s.parent] = a
		}
		a[k] = max(a[k], s.end)
	}
	flushes := td.indexOf(kindFlush)
	var wakeNS, wakeN int64
	for _, c := range td.clients {
		if c.start < in.t0 || c.start >= in.t1 {
			continue
		}
		f := flushOf(flushes, all, c)
		if f < 0 {
			continue
		}
		at := all[f].end
		if a := answered[f]; a != nil && a[c.kind] > 0 {
			at = a[c.kind]
		}
		wakeNS += c.end - at
		wakeN++
	}
	add("frontend.ops_per_flush", ratio(fops, fl), "ops")
	coalesce := 0.0
	if fops > 0 {
		coalesce = 1 - float64(fsub)/float64(fops)
	}
	add("frontend.coalesce_frac", coalesce, "fraction")
	add("frontend.queue_wait_us", us(1)*ratio(fwait, fops), "us")
	add("frontend.max_queue_wait_us", us(fmax), "us")
	add("frontend.flush_us", us(1)*ratio(fdur, fl), "us")
	add("frontend.self_us_per_flush", us(1)*ratio(fself, fl), "us")
	add("frontend.reply_wake_us", us(1)*ratio(wakeNS, wakeN), "us")

	// cluster
	var sg sgStats
	if in.cluster {
		sg = scatterGather(all, in.t0, in.t1)
	}
	add("cluster.scatter_gather_us_per_batch", us(1)*ratio(sg.ns, sg.calls), "us")
	add("cluster.shard_skew", sg.skew(), "ratio")
	add("cluster.successor_fanout", ratio(sg.succBatches, sg.succCalls), "shards")
	add("cluster.checkpoints", float64(ckpt), "count")
	add("cluster.checkpoint_us_per_op", us(ckptNS)/ops, "us/op")
	add("cluster.checkpoint_share", ratio(ckptNS, busySum), "fraction")
	add("cluster.checkpoint_model_io", float64(in.ckptIO)/ops, "io/op")
	add("cluster.journal_ops_max", float64(in.journalMax), "ops")

	// migration
	var fz, cp, co, keys, suf, mio int64
	for _, m := range in.migrations {
		fz += m.freeze
		cp += m.copy
		co += m.cutover
		keys += int64(m.keysCopied)
		suf += int64(m.suffix)
		mio += m.io
	}
	n := int64(len(in.migrations))
	add("migrate.count", float64(in.migCount), "count")
	add("migrate.freeze_ms", ratio(fz, n)/1e6, "ms")
	add("migrate.copy_ms", ratio(cp, n)/1e6, "ms")
	add("migrate.cutover_ms", ratio(co, n)/1e6, "ms")
	add("migrate.keys_copied", ratio(keys, n), "keys")
	add("migrate.suffix_batches", ratio(suf, n), "batches")
	add("migrate.model_io", ratio(mio, n), "io")

	add("trace.overhead_frac", in.overhead, "fraction")
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// p50 is the nearest-rank median of durations.
func p50(d []int64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := make([]sample, len(d))
	for i, x := range d {
		s[i] = sample{ns: uint32(min(x, 1<<32-1)), w: 1}
	}
	v, _ := percentiles(s, 0.5)
	return v[0]
}

// sgStats sums scatter/gather time over cluster calls.
type sgStats struct {
	ns, calls              int64
	succBatches, succCalls int64
	slowest, mean          float64 // Σ over calls of the slowest and the mean shard time
}

// skew is the calls' slowest shard time over their mean shard time.
func (st *sgStats) skew() float64 {
	if st.mean == 0 {
		return 0
	}
	return st.slowest / st.mean
}

// scatterGather attributes the time of each cluster call not spent in its
// slowest shard. A shard's time in a call is the sum of its core batches
// there, a checkpoint included. Where the benchmark makes the call itself
// (elastic-churn) the call span is exact. Inside a ClusterFrontend flush
// the call is not visible from outside the program: the batches of one op
// kind in a flush form one call, bounded by its first start and last end,
// so the scatter before and the gather after fall in the flush's self time.
func scatterGather(all []span, t0, t1 int64) sgStats {
	var st sgStats
	kids := map[int32][]int32{}
	for i := range all {
		s := &all[i]
		if s.kind == kindBatch && s.parent >= 0 && s.start >= t0 && s.start < t1 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for p, ks := range kids {
		par := &all[p]
		switch par.kind {
		case kindCall:
			st.add(all, ks, par.dur())
		case kindFlush:
			// Group by op kind; a checkpoint joins its shard's previous batch.
			groups := map[string][]int32{}
			last := map[int32]string{}
			for _, k := range ks {
				name := all[k].name
				if name == "all_pairs" {
					name = last[all[k].shard]
				}
				last[all[k].shard] = name
				groups[name] = append(groups[name], k)
			}
			for _, g := range groups {
				lo, hi := all[g[0]].start, all[g[0]].end
				for _, k := range g {
					lo, hi = min(lo, all[k].start), max(hi, all[k].end)
				}
				st.add(all, g, hi-lo)
			}
		}
	}
	return st
}

func (st *sgStats) add(all []span, ks []int32, callNS int64) {
	perShard := map[int32]int64{}
	succ := false
	for _, k := range ks {
		perShard[all[k].shard] += all[k].dur()
		if all[k].name == "successor" {
			succ = true
			st.succBatches++
		}
	}
	var slow, sum int64
	for _, v := range perShard {
		slow = max(slow, v)
		sum += v
	}
	st.slowest += float64(slow)
	st.mean += float64(sum) / float64(len(perShard))
	st.ns += callNS - slow
	st.calls++
	if succ {
		st.succCalls++
	}
}

// kindOf maps a core batch name to the client op kind it serves.
func kindOf(name string) (opKind, bool) {
	for k, n := range kindNames {
		if n == name {
			return opKind(k), true
		}
	}
	return 0, false
}
