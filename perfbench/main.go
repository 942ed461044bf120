// Command perfbench is the repository benchmark. It drives the serving
// stack in one process — internal/service over a hetrta Analyzer, wired as
// cmd/dagrtad wires it — with one closed-loop client, on four workloads
// that stress different layers. See README.md for why each workload exists
// and what each metric should move.
//
//	bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same plan
// with spans around each layer's public functions and prints the per-layer
// metrics and an attribution table. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one the timed phase runs on.
const setups = 3

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	// scale shrinks every plan and pool (1 = full size); only tests set it.
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1}
	fs.StringVar(&o.workload, "workload", "", "workload: analyze-cold, serve-hot, admit-churn or exact-small")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	fs.StringVar(&o.dir, "dir", ".bench_build/perfbench", "directory for store logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	if raceEnabled {
		fmt.Fprintln(stderr, "perfbench: refusing to run a -race build; its timings measure the race detector")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := bench(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one benchmark workload. Ops run on one goroutine: exec is the
// timed part of plan op i (decode the wire input, call the service),
// verify checks its outputs, and replay — traced runs only — re-runs the
// stages the service ran for it, each in its own span.
type workload interface {
	// generate builds every input for the seed as wire JSON, plus what an
	// earlier, untimed service lifetime leaves in dir, and feeds the
	// inputs to h in a fixed order.
	generate(seed int64, dir string, h hash.Hash) error
	planLen() int
	// wholePlan makes the timed phase run the whole plan, whatever
	// --seconds says.
	wholePlan() bool
	// mix describes the plan generate built, in one line.
	mix() string
	// setUp builds a fresh service and brings it to steady state, warm-up
	// ops included. traced makes it keep what replay needs.
	setUp(ctx context.Context, dir string, traced bool) error
	exec(ctx context.Context, i int, tr *tracer) error
	verify(i int) error
	replay(ctx context.Context, tr *tracer) error
	// finish runs the checks that need the whole phase and returns how
	// many of them failed.
	finish(ctx context.Context) (int, error)
	tearDown() error
	common() *base
}

func newWorkload(name string, scale float64) (workload, error) {
	switch name {
	case "analyze-cold", "serve-hot", "exact-small":
		return newGraphBench(name, scale), nil
	case "admit-churn":
		return newChurnBench(scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func bench(ctx context.Context, o options, out io.Writer) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(o.workload, o.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	h := sha256.New()
	if err := w.generate(o.seed, dir, h); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(out, "env: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s race=%t cpu=%q inputs_sha256=%s plan_ops=%d\n",
		o.workload, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), raceEnabled,
		cpuModel(), hex.EncodeToString(h.Sum(nil)), w.planLen())
	fmt.Fprintln(out, "mix:", w.mix())

	// The inputs stay resident; everything measured from here on is what
	// set-up and the timed phase add to them.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting VmHWM: %w", err)
	}
	liveBase := readUint64(mLiveHeap)
	seconds := time.Duration(o.seconds * float64(time.Second))
	if w.wholePlan() {
		seconds = 0
	}
	if o.trace {
		return traced(ctx, o, w, dir, seconds/2, liveBase, out)
	}
	return untraced(ctx, o, w, dir, seconds, out)
}

func untraced(ctx context.Context, o options, w workload, dir string, seconds time.Duration, out io.Writer) (*result, error) {
	var setupS, thrs, p50s, cpus, allocs []float64
	attempted, failed := 0, 0
	for k := 0; k < setups; k++ {
		if k > 0 {
			if err := w.tearDown(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		start := time.Now()
		if err := w.setUp(ctx, dir, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		// A workload that runs its whole plan times it after every set-up
		// and reports the median pass; the others time it once, after the
		// last.
		if k < setups-1 && !w.wholePlan() {
			continue
		}
		runtime.GC()
		ph := runPhase(ctx, w, seconds, nil, false)
		finFailed, err := w.finish(ctx)
		if err != nil {
			return nil, err
		}
		name := o.workload
		if w.wholePlan() {
			name = fmt.Sprintf("%s (pass %d of %d)", o.workload, k+1, setups)
		}
		ph.report(out, name, w.common())
		attempted += ph.ops
		failed += ph.failed + finFailed
		thr, cpu := ph.windowed()
		thrs, cpus = append(thrs, thr), append(cpus, cpu)
		p50s = append(p50s, float64(percentile(ph.sorted, 50))/1e3)
		allocs = append(allocs, float64(ph.rt1.allocBytes-ph.rt0.allocBytes)/1024/float64(ph.ops))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := w.tearDown(); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "setup_s per set-up: %v\n", setupS)

	m := map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"throughput_ops_s": {median(thrs), "ops/s"},
		"latency_p50_us":   {median(p50s), "us"},
		"cpu_us_per_op":    {median(cpus), "us"},
		"alloc_kb_per_op":  {median(allocs), "KB"},
		"peak_rss_mb":      {rss, "MB"},
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traced runs the plan twice, each time on a fresh set-up: untraced for
// the counters and the latency the attribution table explains, then with
// spans for the per-layer times.
func traced(ctx context.Context, o options, w workload, dir string, seconds time.Duration, liveBase uint64, out io.Writer) (*result, error) {
	if err := w.setUp(ctx, dir, false); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	plain := runPhase(ctx, w, seconds, nil, true)
	failed, err := w.finish(ctx)
	if err != nil {
		return nil, err
	}
	plain.report(out, o.workload+" (untraced half)", w.common())
	runtime.GC()
	entries := plain.st1.Entries
	entryKB := 0.0
	if live := readUint64(mLiveHeap); entries > 0 && live > liveBase {
		entryKB = float64(live-liveBase) / 1024 / float64(entries)
	}
	if err := w.tearDown(); err != nil {
		return nil, err
	}

	tr := newTracer(1 << 16)
	if err := w.setUp(ctx, dir, true); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	spanned := runPhase(ctx, w, seconds, tr, false)
	fin, err := w.finish(ctx)
	if err != nil {
		return nil, err
	}
	spanned.report(out, o.workload+" (traced half)", w.common())
	failed += plain.failed + spanned.failed + fin
	warm := w.common().warmStart
	if err := w.tearDown(); err != nil {
		return nil, err
	}

	ops := perOp(tr.spans)
	att := attribute(ops, float64(percentile(plain.sorted, 50))/1e3)
	att.write(out, o.workload)
	spanFile := filepath.Join(o.dir, "spans-"+o.workload+".tsv")
	if err := tr.writeSpans(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), spanFile)

	m := layerMetrics(ops, tr, &plain, att, w.common())
	m["service.entry_kb"] = metric{entryKB, "KB"}
	m["store.warm_start_s"] = metric{warm.Seconds(), "s"}
	return &result{Correct: failed == 0, Attempted: plain.ops + spanned.ops, Failed: failed, Metrics: m}, nil
}

// phase is one timed pass over the plan.
type phase struct {
	ops, failed int
	firstErr    error
	lat         []int64 // per-op latency, ns, plan order
	sorted      []int64
	elapsed     time.Duration
	cpu         time.Duration
	steal       uint64
	rt0, rt1    runtimeSnapshot
	st0, st1    service.Stats
	heapPeak    uint64
	// marks are taken before every windowOps-th op: the phase's wall
	// clock and CPU time at the start of each window.
	marks []mark
}

type mark struct {
	at, cpu time.Duration
}

// windowOps is the op count of the windows the rate metrics are taken
// over. A burst of CPU steal or one long GC cycle then moves one window,
// not the metric.
const windowOps = 1000

// windowed returns, over complete windows, the median throughput (ops/s)
// and the median CPU time per op (us). A phase shorter than one window
// reports its whole-phase figures.
func (p *phase) windowed() (thr, cpu float64) {
	var thrs, cpus []float64
	for k := 0; k+1 < len(p.marks); k++ {
		a, b := p.marks[k], p.marks[k+1]
		thrs = append(thrs, windowOps/(b.at-a.at).Seconds())
		cpus = append(cpus, float64((b.cpu-a.cpu).Microseconds())/windowOps)
	}
	if len(thrs) == 0 {
		ops := float64(p.ops)
		return ops / p.elapsed.Seconds(), float64(p.cpu.Microseconds()) / ops
	}
	return median(thrs), median(cpus)
}

// runPhase runs plan ops in order until the plan ends or, for a positive
// dur, the time is up.
// Only exec is timed per op; the phase's wall time, CPU time and
// allocation counters cover the whole loop, checks included. sampleHeap
// reads the heap size every 32 ops for its peak.
func runPhase(ctx context.Context, w workload, dur time.Duration, tr *tracer, sampleHeap bool) phase {
	p := phase{lat: make([]int64, 0, w.planLen())}
	w.common().startPhase()
	svc := w.common().svc()
	p.st0 = svc.Stats()
	steal0, _ := stealTicks()
	cpu0 := cpuTime()
	p.rt0 = readRuntime()
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; i < w.planLen() && (dur <= 0 || time.Now().Before(deadline)); i++ {
		if i%windowOps == 0 {
			p.marks = append(p.marks, mark{time.Since(start), cpuTime() - cpu0})
		}
		tr.beginOp(i)
		t0 := time.Now()
		err := w.exec(ctx, i, tr)
		p.lat = append(p.lat, int64(time.Since(t0)))
		p.ops++
		if err == nil {
			err = w.verify(i)
		}
		if err == nil && tr != nil {
			err = w.replay(ctx, tr)
		}
		tr.endOp()
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
		if sampleHeap && i%32 == 0 {
			p.heapPeak = max(p.heapPeak, readUint64(mHeapObjs))
		}
	}
	p.elapsed = time.Since(start)
	if p.ops%windowOps == 0 {
		p.marks = append(p.marks, mark{p.elapsed, cpuTime() - cpu0})
	}
	p.rt1 = readRuntime()
	p.cpu = cpuTime() - cpu0
	steal1, _ := stealTicks()
	p.steal = steal1 - steal0
	p.st1 = svc.Stats()
	p.sorted = sortedCopy(p.lat)
	return p
}

// report prints the phase's human-readable summary: what the JSON line
// cannot carry.
func (p *phase) report(out io.Writer, name string, b *base) {
	p99 := percentile(p.sorted, 99)
	hits, lookups := p.st1.Hits-p.st0.Hits, p.st1.Hits+p.st1.Misses-p.st0.Hits-p.st0.Misses
	fmt.Fprintf(out, "%s: %d ops in %.2fs, %d failed, %d of %d cache lookups hit; p99 %.1fus with %d of %d samples beyond it; cpu steal %d ticks during the timed phase\n",
		name, p.ops, p.elapsed.Seconds(), p.failed, hits, lookups, float64(p99)/1e3, beyond(p.sorted, p99), len(p.sorted), p.steal)
	if p.firstErr != nil {
		fmt.Fprintln(out, "first failure:", p.firstErr)
	}
	if sum, n := b.bodyDigest(); sum != "" {
		fmt.Fprintf(out, "response digest (sha256 of the first %d bodies): %s\n", n, sum)
	}
}
