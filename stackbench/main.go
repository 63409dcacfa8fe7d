// Command stackbench is the serving stack's benchmark: four closed-loop
// workloads that together exercise every layer (pim, cpu, core, frontend,
// cluster and its migrations), each reply checked against an oracle. An
// untraced run reports the end-to-end metrics; a traced run (-trace 1)
// reports the per-layer metrics. README.md defines every metric.
//
// Usage:
//
//	stackbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only if every
// reply was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

const (
	setups    = 3 // set-ups per untraced run; setup_s is their median
	traceDir  = ".bench_build/trace"
	latWindow = 500 * time.Millisecond // latency_p99_us is the median over these
	maxRun    = 150 * time.Second      // a model window not filled by then fails the run
)

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	part := flag.String("part", "", "internal: run one part in this process (setup or plain) and print its figures")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *workload {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: stackbench -workload <name> -seed <n> -seconds <s> -trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	if *part != "" {
		if err := runPart(def, *seed, *seconds, *part); err != nil {
			fmt.Fprintln(os.Stderr, "stackbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		def.name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(def, *seed, *seconds)
	} else {
		res, err = runUntraced(def, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-38s %16.4f %-9s %s\n", m.name, m.value, m.unit, res.note[m.name])
	}
	fmt.Printf("%-38s %16.6f %-9s host: failed or wrong replies over ops attempted\n", "failed_op_frac",
		float64(res.failed)/float64(max(res.attempted, 1)), "fraction")
	if res.failMsg != "" {
		fmt.Fprintln(os.Stderr, "stackbench: first wrong reply:", res.failMsg)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]map[string]any{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(out) // plain maps of numbers and strings: cannot fail
	fmt.Println(string(line))
	if res.failed != 0 {
		os.Exit(1)
	}
}

type result struct {
	metrics           []metric
	note              map[string]string
	attempted, failed int64
	failMsg           string
}

// window is one measured stretch of traffic.
type window struct {
	t0, t1     int64
	ops        int64   // client ops completed in the window
	throughput float64 // ops/s over the window
	allocBytes int64   // heap bytes the program allocated
	heapPeak   int64   // peak live heap over the model window, bytes, less the benchmark's samples
	lat        []sample
	model      model
	modelOps   int64
	failed     int64
	failMsg    string
}

// measure warms sys up, then drives it for at least secs seconds and, if
// needModel, until a single-driver workload's model window has filled.
func measure(sys *system, clk clock, secs float64, needModel bool) (window, error) {
	var w window
	sys.warm()
	runtime.GC()
	benchBytes.Store(0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var m0 model
	if !sys.modelTarget {
		m0 = sys.model()
	}
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	ops0 := sys.ops.sum()
	w.t0 = clk.now()
	sys.t0 = w.t0
	sys.start()
	sys.journalMax.Store(0) // count only the timed window

	const tick = 25 * time.Millisecond
	deadline := time.Now().Add(maxRun)
	for i := 1; ; i++ {
		time.Sleep(time.Until(clk.origin.Add(time.Duration(w.t0) + time.Duration(i)*tick)))
		// On the single-driver workloads the heap is watched over the model
		// window only: the same work on every run, however fast the host.
		if !sys.modelTarget || !sys.modelDone.Load() {
			metrics.Read(heap)
			if h := int64(heap[0].Value.Uint64()) - benchBytes.Load(); h > w.heapPeak {
				w.heapPeak = h
			}
		}
		now := clk.now()
		if float64(now-w.t0) >= secs*1e9 && !(needModel && sys.modelTarget && !sys.modelDone.Load()) {
			break
		}
		if time.Now().After(deadline) {
			sys.stop.Store(true)
			sys.wg.Wait()
			return w, fmt.Errorf("model window not filled within %v", maxRun)
		}
	}
	w.t1 = clk.now()
	w.ops = sys.ops.sum() - ops0
	runtime.ReadMemStats(&ms)
	w.allocBytes = int64(ms.TotalAlloc-alloc0) - benchBytes.Load()
	if !sys.modelTarget {
		w.model, w.modelOps = sys.model().sub(m0), w.ops
	}
	sys.stop.Store(true)
	sys.wg.Wait()
	if sys.modelTarget {
		w.model, w.modelOps = sys.modelWin, sys.modelOps
	}
	w.throughput = float64(w.ops) / time.Duration(w.t1-w.t0).Seconds()
	w.lat = latencies(sys.lats)
	w.failed = sys.fail.n.Load()
	w.failMsg = sys.fail.first
	return w, nil
}

// build constructs one system, timing machine construction plus prefill.
func build(def *workloadDef, cfg buildCfg) (*system, float64, error) {
	t := time.Now()
	sys, err := def.build(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	return sys, time.Since(t).Seconds(), nil
}

// Each set-up, and each measured system, gets a process of its own: the
// program never reclaims a closed Map's memory (README.md, findings), so a
// second system in one process would run beside the first one's heap.

// runPart runs one part in this process and prints its figures as the last
// line: "setup" builds once and prints the set-up seconds; "plain" builds,
// measures untraced for secs seconds and prints the throughput and the ops
// attempted and failed.
func runPart(def *workloadDef, seed uint64, secs float64, part string) error {
	cfg := buildCfg{seed: seed, shared: sharedKeys(), clk: newClock()}
	sys, sec, err := build(def, cfg)
	if err != nil {
		return err
	}
	defer sys.close()
	switch part {
	case "setup":
		fmt.Println(sec)
	case "plain":
		w, err := measure(sys, cfg.clk, secs, false)
		if err != nil {
			return err
		}
		if w.failMsg != "" {
			fmt.Fprintln(os.Stderr, "stackbench: first wrong reply:", w.failMsg)
		}
		fmt.Println(w.throughput, w.ops, w.failed)
	default:
		return fmt.Errorf("unknown part %q", part)
	}
	return nil
}

// child runs a part in a fresh process, waits for it, and returns the
// figures of its last output line.
func child(def *workloadDef, seed uint64, secs float64, part string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", def.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-part", part)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s part: %w", part, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var vals []float64
	for _, f := range strings.Fields(last) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("%s part printed %q", part, last)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func runUntraced(def *workloadDef, seed uint64, secs float64) (result, error) {
	cfg := buildCfg{seed: seed, shared: sharedKeys(), clk: newClock()}
	sys, sec, err := build(def, cfg)
	if err != nil {
		return result{}, err
	}
	w, err := measure(sys, cfg.clk, secs, true)
	sys.close()
	if err != nil {
		return result{}, err
	}
	setupS := []float64{sec}
	for len(setupS) < setups {
		v, err := child(def, seed, secs, "setup")
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, v[0])
	}

	pct, n := percentiles(w.lat, 0.5)
	p99, wins := windowedPercentile(w.lat, 0.99, 10, int((w.t1-w.t0)/int64(latWindow)))
	ops := float64(max(w.modelOps, 1))
	res := result{attempted: w.ops, failed: w.failed, failMsg: w.failMsg, note: map[string]string{}}
	add := func(name string, v float64, unit, note string) {
		res.metrics = append(res.metrics, metric{name, v, unit})
		res.note[name] = note
	}
	add("throughput_ops_s", w.throughput, "ops/s", fmt.Sprintf("host: over %.1f s", time.Duration(w.t1-w.t0).Seconds()))
	add("latency_p50_us", pct[0]/1e3, "us", fmt.Sprintf("host: exact, %d samples", n))
	add("latency_p99_us", p99/1e3, "us", fmt.Sprintf("host: median of %d windows' exact p99", wins))
	add("setup_s", median(setupS), "s", fmt.Sprintf("host: median of %d set-ups, one process each", len(setupS)))
	add("heap_peak_mib", float64(w.heapPeak)/(1<<20), "MiB", "host: peak live heap after a GC, over the model window")
	add("alloc_bytes_per_op", float64(w.allocBytes)/float64(max(w.ops, 1)), "B/op", "host")
	window := fmt.Sprintf("simulated: over %d ops", w.modelOps)
	add("model_io_time_per_op", float64(w.model.io)/ops, "io/op", window)
	add("model_pim_time_per_op", float64(w.model.pim)/ops, "work/op", window)
	add("model_rounds_per_op", float64(w.model.rounds)/ops, "rounds/op", window)
	add("model_cpu_work_per_op", float64(w.model.cpuWork)/ops, "work/op", window)
	add("model_cpu_depth_per_batch", float64(w.model.cpuDepth)/float64(max(w.model.batches, 1)), "depth",
		fmt.Sprintf("simulated: over %d batches", w.model.batches))
	return res, nil
}

// runTraced measures the workload untraced (in a child process) and then
// traced, each for half the time, and reports the per-layer metrics of the
// traced half.
func runTraced(def *workloadDef, seed uint64, secs float64) (result, error) {
	plain, err := child(def, seed, secs/2, "plain")
	if err != nil {
		return result{}, err
	}
	if len(plain) != 3 {
		return result{}, fmt.Errorf("plain part printed %v", plain)
	}
	clk := newClock()
	sys, _, err := build(def, buildCfg{seed: seed, shared: sharedKeys(), traced: true, clk: clk})
	if err != nil {
		return result{}, err
	}
	var rec0 []int64
	if sys.cluster != nil {
		rec0 = recoveryIO(sys)
		sys.sampleJournal()
	}
	wt, err := measure(sys, clk, secs/2, true)
	var ckptIO int64
	if sys.cluster != nil {
		close(sys.samplerStop)
		<-sys.samplerDone
		for i, v := range recoveryIO(sys) {
			if i < len(rec0) {
				v -= rec0[i]
			}
			ckptIO += v
		}
	}
	sys.close()
	if err != nil {
		return result{}, err
	}
	td := collect(sys.recs, sys.sinks, sys.p)
	self := selfTimes(td.all)
	in := layerIn{td: td, self: self, t0: wt.t0, t1: wt.t1, ops: wt.ops, prefill: sys.prefill,
		prefillKeys: sys.prefillKeys, cluster: sys.cluster != nil, ckptIO: ckptIO,
		journalMax: sys.journalMax.Load(), migrations: sys.migrations, migCount: sys.migsInWin,
		overhead: 1 - wt.throughput/plain[0]}
	res := result{metrics: perLayer(in), attempted: int64(plain[1]) + wt.ops, failed: int64(plain[2]) + wt.failed,
		failMsg: wt.failMsg, note: map[string]string{}}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(traceDir, def.name+".tsv")
	if err := td.write(path, self); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s (%d spans, %d client ops)\n", path, len(td.all), len(td.clients))
	return res, nil
}

// recoveryIO returns each shard's ShardStats.Recovery IO time: the model
// IO of its checkpoints (and of any rebuild, of which these workloads have
// none).
func recoveryIO(sys *system) []int64 {
	var out []int64
	for i := 0; i < sys.cluster.Shards(); i++ {
		out = append(out, sys.cluster.ShardStats(i).Recovery.IOTime)
	}
	return out
}
