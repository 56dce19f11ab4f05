// Command perfbench is the real-OS benchmark of the ALPS control loop: it
// spawns a seeded workload of real child processes, drives osproc.Runner
// over RealSys with the cmd/alps observability stack attached (see
// stack.go), and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload idle-fleet --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --breakdown --seed 1
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload is measured twice for
// half the time each, once untraced and once with timing decorators
// around every layer boundary, and the result holds the per-layer ledger
// plus the tracing overhead.
// --breakdown grows idle-fleet until the median Step exceeds half of Q
// (ungated; see README.md).
//
// The run fails (exit 1, "correct": false) if Release leaves any child
// stopped, if a child dies that the benchmark did not kill, or if the
// program's own per-cycle accounting disagrees with the benchmark's
// /proc reads beyond the tolerance crossCheck states.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"alps/internal/obs"
)

// spanCapacity bounds the traced run's span buffer (32 bytes a span).
const spanCapacity = 4 << 20

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == execAfterFlag {
		execAfter(os.Args[2:])
	}
	os.Exit(run())
}

func run() (code int) {
	name := flag.String("workload", "", "workload: idle-fleet, spin-share or io-groups")
	seed := flag.Int64("seed", 1, "seed for the generated workload")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger")
	spin := flag.String("spin", filepath.Join(".bench_build", "perfbench", "alps-spin"), "alps-spin binary")
	breakdown := flag.Bool("breakdown", false, "measure the §4.2 breakdown N on idle-fleet (ungated)")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(*spin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: alps-spin:", err)
		return 2
	}
	work := filepath.Join(".bench_build", "perfbench", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	// Children die on every exit path: normal return, error, panic,
	// SIGINT/SIGTERM (here), and SIGKILL of this process (Pdeathsig).
	var fleets []*fleet
	killAll := func() {
		for _, f := range fleets {
			f.kill()
		}
	}
	newFleet := func() *fleet {
		f := &fleet{spin: *spin, self: self}
		fleets = append(fleets, f)
		return f
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		killAll()
		os.RemoveAll(work)
		fmt.Fprintln(os.Stderr, "perfbench: interrupted by", s)
		os.Exit(130)
	}()
	defer killAll()
	defer func() {
		if p := recover(); p != nil {
			killAll()
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", p, debug.Stack())
			code = 2
		}
	}()

	if *breakdown {
		return runBreakdown(*seed, time.Duration(*seconds)*time.Second, work, newFleet)
	}
	wl, err := genWorkload(*name, *seed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	f := newFleet()
	if err := f.spawn(wl); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	time.Sleep(300 * time.Millisecond) // let the children reach their steady role
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d principals, %d processes, GOMAXPROCS %d\n",
		wl.name, *seed, len(wl.principals), len(f.children), runtime.GOMAXPROCS(0))

	// A traced invocation measures the untraced and the traced run for
	// half the time each, so it costs what an untraced one does.
	dur := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		dur /= 2
	}
	plain, err := measure(wl, f, runOpts{seconds: dur, ckptPath: filepath.Join(work, "state.ckpt")})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(os.Stderr, "untraced", plain)
	res := result{Correct: true, Attempted: plain.attempted, Failed: plain.failed}
	problems := plain.problems
	if *traced == 0 {
		rss, err := vmHWM()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res.Metrics = endToEnd(plain, rss)
	} else {
		untraced := endToEnd(plain, 0)
		delete(untraced, "rss_peak_mb") // the span buffer of the traced run would count in it
		printMetrics(untraced)
		tr := newTracer(spanCapacity)
		tres, err := measure(wl, f, runOpts{seconds: dur, ckptPath: filepath.Join(work, "state.ckpt"), tr: tr})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		report(os.Stderr, "traced", tres)
		problems = append(problems, tres.problems...)
		res.Attempted, res.Failed = tres.attempted, tres.failed
		res.Metrics = perLayer(tres, plain)
		path := spanPath(wl.name, *seed)
		if err := tres.ledger.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d dropped, buffer %d)\n",
				len(tres.ledger.orderedSpans), path, tres.ledger.droppedSpans, tres.ledger.spanBufferCap)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	res.Correct = len(problems) == 0
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// blockStats returns each measured block's step median and controller
// CPU per quantum.
func blockStats(r *runResult) (p50s, cpus []float64) {
	for i := 0; i+1 < len(r.blocks); i++ {
		a, b := r.blocks[i], r.blocks[i+1]
		if b.step == a.step {
			continue
		}
		p50s = append(p50s, quantile(durationsMs(r.steps[a.step:b.step]), 0.5))
		cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/float64(b.step-a.step))
	}
	return p50s, cpus
}

// endToEnd derives the end-to-end metrics of an untraced run. The step
// median and the controller CPU are medians over 1 s blocks; the mean is
// over every Step of the window.
func endToEnd(r *runResult, rssMB float64) map[string]metric {
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	p50s, cpus := blockStats(r)
	return map[string]metric{
		"setup_s":          {quantile(setup, 0.5), "s"},
		"step_p50_ms":      {quantile(p50s, 0.5), "ms"},
		"step_mean_ms":     {mean(durationsMs(r.steps)), "ms"},
		"ctl_cpu_us_per_q": {quantile(cpus, 0.5), "us"},
		"quanta_per_s":     {float64(len(r.steps)) / r.wall.Seconds(), "1/s"},
		"share_err_pct":    {100 * mean(r.shareErr), "%"},
		"share_worst_pct":  {100 * mean(r.shareMax), "%"},
		"rss_peak_mb":      {rssMB, "MiB"},
	}
}

// perLayer derives the per-layer ledger of a traced run, plus the
// tracing overhead against the untraced run of the same invocation. The
// step p99 is the untraced run's: tracing would move the tail it reports,
// and it is not gated because its run-to-run spread on a shared 2-vCPU
// host exceeds the largest bound an end-to-end metric may have.
func perLayer(t, plain *runResult) map[string]metric {
	l := t.ledger
	q := float64(l.quanta)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ev := func(k obs.Kind) float64 { return float64(t.events[k]) }
	var events float64
	for k := range t.events {
		events += float64(t.events[k])
	}
	p := t.probe
	return map[string]metric{
		"osproc.loop_self_us_per_q": {us(l.loopSelf) / q, "us"},
		"osproc.pool_parallelism":   {ratio(float64(l.readSum), float64(l.readUnion)), "ratio"},
		"osproc.allocs_per_q":       {float64(t.mallocs) / q, "count"},
		"osproc.step_p99_ms":        {quantile(durationsMs(plain.steps), 0.99), "ms"},

		"procfs.reads_per_q":              {float64(l.reads) / q, "count"},
		"procfs.read_busy_us_per_q":       {us(l.readSum) / q, "us"},
		"procfs.read_us_p50":              {quantile(l.readDur, 0.5), "us"},
		"procfs.read_us_p99":              {quantile(l.readDur, 0.99), "us"},
		"procfs.read_fail_frac":           {ratio(float64(p.readFails.Load()), float64(p.reads.Load())), "ratio"},
		"procfs.read_useful_frac":         {ratio(float64(p.usefulReads.Load()), float64(p.seenReads.Load())), "ratio"},
		"signal.calls_per_q":              {float64(l.sigs) / q, "count"},
		"signal.busy_us_per_q":            {us(l.sigSum) / q, "us"},
		"signal.call_us_p50":              {quantile(l.sigDur, 0.5), "us"},
		"signal.fail_frac":                {ratio(float64(p.sigFails.Load()), float64(p.sigs.Load())), "ratio"},
		"signal.calls_per_flip":           {ratio(float64(l.sigs), ev(obs.KindTransition)), "ratio"},
		"signal.group_frac":               {ratio(float64(p.groupSigs.Load()), float64(p.loopSigs.Load())), "ratio"},
		"core.self_us_per_q":              {us(l.coreSelf) / q, "us"},
		"core.measures_per_q":             {ev(obs.KindMeasure) / q, "count"},
		"core.flips_per_q":                {ev(obs.KindTransition) / q, "count"},
		"core.postpones_per_q":            {ev(obs.KindPostpone) / q, "count"},
		"core.cycles_per_s":               {ev(obs.KindCycle) / t.wall.Seconds(), "1/s"},
		"obs.events_per_q":                {events / q, "count"},
		"obs.observe_us_per_q":            {us(l.observeSum) / q, "us"},
		"obs.oncycle_us_per_cycle":        {ratio(us(l.onCycleSum), float64(l.onCycles)), "us"},
		"obs.scrape_ms":                   {quantile(l.scrapes, 0.5), "ms"},
		"tshist.sample_us":                {quantile(l.histSamples, 0.5), "us"},
		"ckpt.handoff_us_per_cycle":       {ratio(us(l.handoffSum), float64(l.handoffs)), "us"},
		"ckpt.write_ms_p50":               {quantile(l.ckptWrites, 0.5), "ms"},
		"ckpt.coalesced_frac":             {1 - ratio(float64(t.ckptWrites), float64(t.ckptOffers)), "ratio"},
		"trace.step_p50_ms":               {quantile(durationsMs(t.steps), 0.5), "ms"},
		"trace.untraced_step_p50_ms":      {quantile(durationsMs(plain.steps), 0.5), "ms"},
		"trace.ctl_cpu_us_per_q":          {float64(t.cpu) / 1e3 / float64(len(t.steps)), "us"},
		"trace.untraced_ctl_cpu_us_per_q": {float64(plain.cpu) / 1e3 / float64(len(plain.steps)), "us"},
	}
}

// report prints a run's sample counts and health on stderr.
func report(w *os.File, label string, r *runResult) {
	setup := durationsMs(r.setup)
	fmt.Fprintf(w, "perfbench: %s run: %d steps over %.2fs, %d cycles, %d share windows, %d sys calls (%d failed), %d set-ups: median %.3fms, min %.3fms, max %.3fms\n",
		label, len(r.steps), r.wall.Seconds(), r.cycles, len(r.shareErr), r.attempted, r.failed,
		len(setup), quantile(setup, 0.5), quantile(setup, 0), quantile(setup, 1))
	fmt.Fprintf(w, "perfbench: %s health: %v\n", label, r.health)
	fmt.Fprintf(w, "perfbench: %s step p99 %.3fms over %d steps\n",
		label, quantile(durationsMs(r.steps), 0.99), len(r.steps))
	p50s, cpus := blockStats(r)
	fmt.Fprintf(w, "perfbench: %s per-second step p50 (ms):", label)
	for _, v := range p50s {
		fmt.Fprintf(w, " %.3f", v)
	}
	fmt.Fprintf(w, "\nperfbench: %s per-second controller CPU (us/q):", label)
	for _, v := range cpus {
		fmt.Fprintf(w, " %.0f", v)
	}
	fmt.Fprintln(w)
}

// printMetrics lists every metric with its unit on stderr.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no samples; reported as 0\n", n)
			v.Value = 0
			m[n] = v
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
}
