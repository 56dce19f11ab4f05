package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/osproc"
)

// setupReps is how many times a run builds the stack and the Runner; the
// reported set-up time is their median and the last one is measured.
// Every discarded Runner is released and its checkpoint writer closed,
// and the children get setupGap to resume, so each NewRunner starts from
// the state the program starts from: every child running or sleeping,
// none stopped. One set-up takes from 0.3 ms (spin-share) to about 7 ms
// (idle-fleet), and a moment of host contention moves a single figure by
// half; many repetitions spread over a second or more keep the median
// steady.
const (
	setupReps = 60
	setupGap  = 10 * time.Millisecond
)

// warmup runs the loop unmeasured first, so the first cycles after
// NewRunner (every child stopped) and lazy set-up are not timed.
const warmup = 2 * time.Second

// runOpts parameterizes one measured run.
type runOpts struct {
	seconds  time.Duration
	ckptPath string
	tr       *tracer // nil: tracing off
}

// runResult is what one measured run produced.
type runResult struct {
	setup                  []time.Duration
	steps                  []time.Duration // wall time of each measured Runner.Step
	wall                   time.Duration   // measured window
	cpu                    time.Duration   // controller user+sys CPU over the window
	mallocs                uint64          // runtime Mallocs delta over the window
	shareErr               []float64       // per-window RMS relative share error
	shareMax               []float64       // per-window worst principal's relative error
	cycles                 int             // allocation cycles completed in the window
	health                 osproc.Health
	ckptOffers, ckptWrites int64
	attempted, failed      int64
	problems               []string // correctness-gate and cross-check failures
	ledger                 *ledger
	events                 [16]int64 // traced run: measured observer events by obs.Kind
	probe                  *sysProbe
	blocks                 []blockMark
}

// blockLen splits the measured window into blocks. The step median and
// the controller CPU are reported as the median over blocks, so a few
// seconds of interference from the shared host move them less.
const blockLen = time.Second

// blockMark is the loop's state at a block boundary.
type blockMark struct {
	step int
	cpu  time.Duration
	at   time.Time
}

// alwaysPIDs lists the members of the always-runnable principals (only
// the busy ones if busyOnly) and, per PID, the principal it belongs to.
func alwaysPIDs(wl *workload, f *fleet, busyOnly bool) (pids []int, owner []int) {
	for _, c := range f.children {
		p := wl.principals[c.principal]
		if !p.always || (busyOnly && c.role == sleeper) {
			continue
		}
		pids = append(pids, c.pid)
		owner = append(owner, c.principal)
	}
	return pids, owner
}

// measure builds the stack and Runner setupReps times, then drives
// Runner.Step from a timer loop identical to Runner.Run's, measuring
// opts.seconds after the warm-up.
func measure(wl *workload, f *fleet, opts runOpts) (*runResult, error) {
	res := &runResult{}
	var (
		st    *stack
		r     *osproc.Runner
		probe *sysProbe
		err   error
	)
	// Cross-check state: the program's own per-principal consumption from
	// its cycle records, accumulated on the loop goroutine.
	progConsumed := make([]time.Duration, len(wl.principals))
	var lastCycle time.Time
	measuring := false
	// cycleEnd tells the share sampler that a cycle completed; a token it
	// has not taken yet absorbs the next one.
	cycleEnd := make(chan struct{}, 1)
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			r.Release()
			st.ckw.Close()
			time.Sleep(setupGap)
		}
		var onWrite func(time.Duration, error)
		if tr := opts.tr; tr != nil {
			onWrite = func(d time.Duration, _ error) {
				end := tr.now()
				tr.record(spCkptWrite, end-int64(d), end)
			}
		}
		// Start each repetition from a collected heap, so a collection the
		// previous repetition's garbage triggers is not charged to it.
		runtime.GC()
		t0 := time.Now()
		st = newStack(opts.ckptPath, onWrite)
		cfg := runnerConfig(runtime.GOMAXPROCS(0))
		st.wire(&cfg)
		probe = newSysProbe(opts.tr, f.children)
		cfg.Sys = probe
		if opts.tr != nil {
			opts.tr.instrument(&cfg)
		}
		offer := cfg.Checkpoint
		cfg.Checkpoint = func(s osproc.RunnerState) {
			offer(s)
			res.ckptOffers++
		}
		inner := cfg.OnCycle
		cfg.OnCycle = func(rec core.CycleRecord) {
			inner(rec)
			for _, t := range rec.Tasks {
				progConsumed[t.ID] += t.Consumed
			}
			lastCycle = time.Now()
			if measuring {
				res.cycles++
				select {
				case cycleEnd <- struct{}{}:
				default:
				}
			}
		}
		cfg.OnError = func(e error) { fmt.Fprintln(os.Stderr, "perfbench:", e) }
		r, err = osproc.NewRunner(cfg, f.tasks)
		if err != nil {
			st.ckw.Close()
			return nil, fmt.Errorf("NewRunner: %w", err)
		}
		st.lateness = func() time.Duration { return r.Health().LastLateness }
		res.setup = append(res.setup, time.Since(t0))
		clear(progConsumed)
		res.ckptOffers = 0
	}
	res.probe = probe
	defer func() {
		r.Release()
		st.ckw.Close()
	}()

	// External reference: every child of an always-runnable principal is
	// stopped now, at the same instant the Runner baselined it.
	allPIDs, allOwner := alwaysPIDs(wl, f, false)
	allRef, err := openSched(allPIDs)
	if err != nil {
		return nil, err
	}
	defer allRef.close()
	base := make([]int64, len(allPIDs))
	for i := range allPIDs {
		if base[i], err = allRef.read(i); err != nil {
			return nil, err
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	every := func(d time.Duration, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := time.NewTicker(d)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					fn()
				case <-stop:
					return
				}
			}
		}()
	}
	every(timelineEvery, func() { opts.tr.timed(spHistSample, func() { st.hist.Sample(time.Time{}) }) })
	every(scrapeEvery, func() {
		opts.tr.timed(spScrape, func() {
			if err := st.reg.WritePrometheus(io.Discard); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: scrape:", err)
			}
		})
	})
	stopSide := func() {
		if stop != nil {
			close(stop)
			wg.Wait()
			stop = nil
		}
	}
	defer stopSide()

	res.steps = make([]time.Duration, 0, int(opts.seconds/quantum)+64)
	mark := func() error {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return err
		}
		res.blocks = append(res.blocks, blockMark{step: len(res.steps), cpu: rusageCPU(ru), at: time.Now()})
		return nil
	}
	var (
		ms0, ms1  runtime.MemStats
		sampler   *shareSampler
		warmEnd   = time.Now().Add(warmup)
		measEnd   time.Time
		nextBlock time.Time
		stepIndex int32
	)
	timer := time.NewTimer(r.EffectiveQuantum())
	defer timer.Stop()
	for {
		<-timer.C
		now := time.Now()
		if !measuring && !now.Before(warmEnd) {
			measuring = true
			runtime.ReadMemStats(&ms0)
			if err := mark(); err != nil {
				return nil, err
			}
			measEnd = res.blocks[0].at.Add(opts.seconds)
			nextBlock = res.blocks[0].at.Add(blockLen)
			if sampler, err = startShareSampler(wl, f, cycleEnd); err != nil {
				return nil, err
			}
			defer sampler.stop()
		}
		if measuring && !now.Before(measEnd) {
			break
		}
		if measuring && !now.Before(nextBlock) {
			if err := mark(); err != nil {
				return nil, err
			}
			nextBlock = nextBlock.Add(blockLen)
		}
		if measuring && opts.tr != nil {
			opts.tr.q.Store(stepIndex)
		}
		var tr0 int64
		if opts.tr != nil {
			tr0 = opts.tr.now()
		}
		s0 := time.Now()
		done := r.Step()
		d := time.Since(s0)
		if measuring {
			res.steps = append(res.steps, d)
			if opts.tr != nil {
				opts.tr.record(spStep, tr0, opts.tr.now())
			}
			stepIndex++
		}
		if done {
			return nil, fmt.Errorf("every controlled process exited")
		}
		timer.Reset(r.EffectiveQuantum())
	}
	if err := mark(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	if opts.tr != nil {
		opts.tr.q.Store(-1)
	}
	first, last := res.blocks[0], res.blocks[len(res.blocks)-1]
	res.wall = last.at.Sub(first.at)
	res.cpu = last.cpu - first.cpu
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.shareErr, res.shareMax = sampler.stop()

	// Cross-check, read before Release lets the children run unobserved.
	end := make([]int64, len(allPIDs))
	for i := range allPIDs {
		if end[i], err = allRef.read(i); err != nil {
			return nil, err
		}
	}
	tailAge := time.Since(lastCycle)
	res.problems = append(res.problems, crossCheck(wl, allOwner, base, end, progConsumed, tailAge, r.EffectiveQuantum())...)

	res.health = r.Health()
	stopSide()
	r.Release()
	st.ckw.Close()
	res.ckptWrites = st.reg.Counter("alps_checkpoint_writes_total", "").Value()
	res.problems = append(res.problems, f.checkChildren()...)
	res.attempted, res.failed = probe.attempted(), probe.failed()
	if opts.tr != nil {
		res.ledger = buildLedger(opts.tr)
		res.events = opts.tr.events
	}
	return res, nil
}

func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// crossCheck compares, for each always-runnable principal, the CPU its
// members used since the Runner baselined them (the benchmark's own
// schedstat reads) with the sum of the program's CycleRecord.Consumed.
// They differ legitimately by the consumption not yet folded into a
// completed cycle: at most every busy member running since the last
// cycle completed, plus a lazily postponed measurement (share·Q of wall
// per busy member), plus one 10ms /proc accounting tick per member and
// 2% of the total. Anything larger fails the run.
func crossCheck(wl *workload, owner []int, base, end []int64, prog []time.Duration, tailAge, effQ time.Duration) []string {
	ext := make(map[int]time.Duration)
	members := make(map[int]int)
	for i, p := range owner {
		ext[p] += time.Duration(end[i] - base[i])
		members[p]++
	}
	var bad []string
	for pi, p := range wl.principals {
		if !p.always {
			continue
		}
		busy := 0
		for _, m := range p.members {
			if m.role != sleeper {
				busy++
			}
		}
		tol := ext[pi]/50 + time.Duration(busy)*(tailAge+time.Duration(p.share)*effQ) +
			time.Duration(members[pi])*osproc.ClockTick
		diff := prog[pi] - ext[pi]
		if diff < 0 {
			diff = -diff
		}
		if diff > tol {
			bad = append(bad, fmt.Sprintf("principal %d (share %d): program accounted %v, /proc shows %v (|diff| %v > tolerance %v)",
				pi, p.share, prog[pi], ext[pi], diff, tol))
		}
	}
	return bad
}

// shareWindow is the least wall length of one share-reference window. A
// window is made of whole allocation cycles: it opens at the end of one
// cycle and closes at the first cycle end at least shareWindow later, so
// no partial cycle at its edges aliases into the error. That is 3 cycles
// on idle-fleet (about 4.7 cycles a second) and about 6 on spin-share:
// short enough that carryover cannot hide a per-cycle overrun.
const shareWindow = 500 * time.Millisecond

// shareSampler is the share reference: a goroutine off the control loop
// that reads the busy members of every always-runnable principal from
// /proc/<pid>/schedstat at window edges. The loop only signals cycle ends
// on cycleEnd; the reads happen on the sampler's goroutine.
type shareSampler struct {
	ref    *schedReader
	idx    map[int]int // principal → index into shares
	shares []float64
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	errs   []float64
	worst  []float64
}

func startShareSampler(wl *workload, f *fleet, cycleEnd chan struct{}) (*shareSampler, error) {
	pids, owner := alwaysPIDs(wl, f, true)
	ref, err := openSched(pids)
	if err != nil {
		return nil, err
	}
	s := &shareSampler{ref: ref, idx: make(map[int]int), done: make(chan struct{})}
	for _, p := range owner {
		if _, ok := s.idx[p]; !ok {
			s.idx[p] = len(s.shares)
			s.shares = append(s.shares, float64(wl.principals[p].share))
		}
	}
	prev := make([]int64, len(s.shares))
	cur := make([]int64, len(s.shares))
	consumed := make([]float64, len(s.shares))
	read := func(into []int64) {
		clear(into)
		for i := range pids {
			v, err := ref.read(i)
			if err == nil {
				into[s.idx[owner[i]]] += v
			}
		}
	}
	// Called on the loop goroutine between Steps: a token left from before
	// the window was measured is dropped, and the first window opens at
	// the next cycle end.
	select {
	case <-cycleEnd:
	default:
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var opened time.Time
		for {
			select {
			case <-s.done:
				return
			case <-cycleEnd:
			}
			if !opened.IsZero() && time.Since(opened) < shareWindow {
				continue
			}
			read(cur)
			first := opened.IsZero()
			opened = time.Now()
			if first {
				prev, cur = cur, prev
				continue
			}
			for i := range cur {
				consumed[i] = float64(cur[i] - prev[i])
			}
			prev, cur = cur, prev
			errs, err := metrics.ShareErrors(consumed, s.shares)
			if err != nil {
				continue // nothing ran in this window
			}
			var sq, worst float64
			for _, e := range errs {
				sq += e * e
				worst = math.Max(worst, e)
			}
			s.errs = append(s.errs, math.Sqrt(sq/float64(len(errs))))
			s.worst = append(s.worst, worst)
		}
	}()
	return s, nil
}

// stop ends sampling and returns the per-window RMS and worst errors.
// Safe to call more than once.
func (s *shareSampler) stop() (rms, worst []float64) {
	s.once.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.ref.close()
	})
	return s.errs, s.worst
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// vmHWM returns the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if len(line) > 6 && line[:6] == "VmHWM:" {
			var kb int64
			for _, c := range line[6:] {
				if c >= '0' && c <= '9' {
					kb = kb*10 + int64(c-'0')
				}
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "perfbench", "spans-"+workload+"-seed"+strconv.FormatInt(seed, 10)+".csv.gz")
}
