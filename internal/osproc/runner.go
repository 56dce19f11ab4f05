package osproc

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"alps/internal/backoff"
	"alps/internal/core"
	"alps/internal/obs"
)

// Task binds a core task to the real processes it covers: one PID for
// ordinary per-process scheduling, several for a §5-style resource
// principal.
type Task struct {
	ID    core.TaskID
	Share int64
	PIDs  []int
	// PGID, when nonzero, asserts that every PID belongs to this process
	// group, letting the runner suspend or resume the whole principal
	// with a single kill(-pgid) syscall instead of one per member.
	// Membership is verified via getpgid at adoption; a claim that does
	// not hold (attach mode, mixed groups) silently falls back to per-PID
	// delivery. cmd/alps sets it for spawned workloads (Setpgid at fork).
	PGID int
}

// Config parameterizes a Runner.
type Config struct {
	// Quantum is the ALPS quantum Q. The paper's sweet spot is
	// 10–40 ms; note /proc accounting advances in 10 ms ticks, so
	// quanta below 10 ms cannot observe progress.
	Quantum time.Duration
	// DisableLazySampling turns off the §2.3 optimization.
	DisableLazySampling bool
	// Samplers bounds the worker pool that fans out /proc stat reads
	// (prefetched for the tasks due this quantum) and SIGSTOP/SIGCONT
	// deliveries. Values ≤ 1 keep the loop fully sequential — the
	// deterministic default for tests; cmd/alps passes GOMAXPROCS via
	// -samplers. Per-PID retry/backoff semantics and all bookkeeping
	// order are identical either way: workers only perform the raw Sys
	// calls, and results are merged on the loop goroutine in decision
	// order.
	Samplers int
	// OnCycle receives per-cycle consumption records.
	OnCycle func(core.CycleRecord)
	// RefreshEvery re-resolves task membership that often via Refresh.
	RefreshEvery time.Duration
	// Refresh returns the current PID membership per task (e.g. from
	// PidsOfUser). Tasks absent from the map keep their membership.
	Refresh func() map[core.TaskID][]int
	// OnError, if non-nil, receives non-fatal per-process errors
	// (vanished PIDs, signal failures, refresh problems).
	OnError func(error)
	// Sys overrides the OS surface; nil means the real /proc + kill(2)
	// implementation. Tests install a fault-injecting fake here.
	Sys Sys
	// Observer, if non-nil, receives the core algorithm's decision
	// events (see obs.Event), plus the runner's own signal/sleep phase
	// markers. Events are stamped with the wall time elapsed since the
	// runner was created.
	Observer obs.Observer
	// Clock overrides the runner's time source (default time.Now). It
	// drives quantum-lateness detection, work accounting, and event
	// timestamps, so tests can run the loop on a virtual clock (e.g.
	// FaultSys.Now) and fault-injected delays surface as real lateness.
	Clock func() time.Time
	// Metrics, if non-nil, receives the runner's health telemetry
	// (exported at scrape time from the same atomics Health reads) and
	// latency histograms: step lateness, per-task sample duration, and
	// signal-delivery duration.
	Metrics *obs.Registry
	// Checkpoint, if non-nil, is called at the end of any Step that
	// completed at least one allocation cycle, with the runner's full
	// durable state. It runs on the control-loop goroutine (under the
	// loop lock), so it must be fast; cmd/alps uses it to persist a
	// ckpt file per cycle.
	Checkpoint func(RunnerState)
	// Overload configures the §4.2 overload guard; the zero value
	// leaves it disabled.
	Overload OverloadConfig
	// BackoffSeed seeds the jitter stream of the runner's capped
	// signal-retry backoff (see internal/backoff). The zero value is a
	// fixed default stream — fault-injection tests stay deterministic —
	// while cmd/alps derives a per-process seed so a fleet of shards
	// whose substrate misbehaves simultaneously never retries in
	// lockstep.
	BackoffSeed uint64
}

// Fault-tolerance knobs. Real systems exhibit every one of these failure
// modes routinely (PIDs vanishing mid-cycle, /proc read races, EPERM
// after a setuid exec, timer overruns under load); the constants bound
// how much of a quantum the loop spends recovering from them.
const (
	// maxSignalAttempts bounds transient-failure retries for one signal
	// delivery within a quantum.
	maxSignalAttempts = 3
	// maxReadAttempts bounds immediate retries of a transiently failing
	// /proc read (read races clear without waiting).
	maxReadAttempts = 2
	// maxBadPIDStrikes is the number of consecutive failing quanta
	// after which a PID that exists but refuses us (EPERM on signals,
	// unreadable stat) is dropped so the rest of the workload keeps its
	// guarantees.
	maxBadPIDStrikes = 3
	// maxCatchUpTicks caps the extra algorithm invocations issued in
	// one Step to compensate overrun quanta, so a long scheduler stall
	// cannot trigger a storm of signals on resume.
	maxCatchUpTicks = 4
)

// pidState is the accounting baseline for one live process incarnation.
type pidState struct {
	cpu   time.Duration // last observed cumulative CPU
	start uint64        // /proc start time when baselined (reuse guard)
}

// Runner executes the ALPS control loop over real processes. Create it
// with NewRunner (or NewRunnerFromState after a crash), then call Run;
// the loop holds no goroutines besides the caller's. Health may be
// called from any goroutine; State, Reconfigure, and Release serialize
// with the loop via an internal lock.
type Runner struct {
	cfg   Config
	sys   Sys
	sched *core.Scheduler

	// loopMu serializes the control loop (Step) with the cross-goroutine
	// entry points: State (checkpoint/admin reads), Reconfigure (SIGHUP
	// and /admin/config), and Release. The loop takes it once per
	// quantum, so contention is negligible.
	loopMu sync.Mutex

	targets map[core.TaskID][]int
	known   map[int]pidState // accounting baseline per live PID
	badSig  map[int]int      // consecutive failed signal deliveries
	badRead map[int]int      // consecutive denied stat reads
	// groups maps a task to its verified process-group ID. Presence means
	// every member PID was confirmed (getpgid) to be in the group, so
	// eligibility flips cost one syscall; absence means per-PID delivery.
	groups map[core.TaskID]int

	// sigOps and sigResults are enact's per-quantum scratch, reused
	// across ticks so the steady-state signal path allocates nothing.
	sigOps     []sigOp
	sigResults []sigResult

	// suspended[pid] is true while the runner holds pid SIGSTOPped; a
	// false entry is a PID it has since resumed (see markSuspended).
	suspended map[int]bool
	ticks     int64
	lastRef   time.Time
	lastTick  time.Time

	baseQ time.Duration // operator-configured quantum (pre-degradation)
	over  overloadState

	now     func() time.Time // injectable clock for overrun tests
	start   time.Time        // creation time, origin for event timestamps
	tracer  obs.Observer     // stamped observer (nil when disabled)
	inSleep bool             // an open sleep phase span awaits the next Step
	health  healthCounters
	mx      *runnerMetrics // nil unless Config.Metrics was set
	retry   backoff.Policy // signal-retry backoff (jittered, seedable)

	// statCache holds the worker pool's prefetched stat reads for the
	// current quantum (nil when sampling sequentially); read() consumes
	// it so the Sys calls happen concurrently but every bookkeeping
	// decision stays on the loop goroutine. statScratch is the retained
	// backing map (cleared, not reallocated, each quantum), and
	// prefetchPIDs/prefetchRes the retained fan-out buffers.
	statCache    map[int]statResult
	statScratch  map[int]statResult
	prefetchPIDs []int
	prefetchRes  []statResult
	// needReconcile requests a full eligibility reconciliation sweep on
	// the next quantum. Set whenever suspension state may disagree with
	// eligibility — a failed signal delivery, a membership refresh, a
	// reconfiguration, or crash recovery — so the amortized loop never
	// skips a sweep it actually needs (see maybeReconcile).
	needReconcile bool
}

// NewRunner builds a runner controlling the given tasks. All live task
// processes start ineligible: they are SIGSTOPped here and resumed when
// the algorithm first grants them their allowance (§2.2). PIDs that are
// already gone are dropped (and counted in Health); if every requested
// PID is gone, NewRunner fails with ErrNoLiveProcess rather than
// pretending to schedule an empty workload. Call Run to start scheduling
// and always let it return (or call Release) so the workload is not left
// stopped.
func NewRunner(cfg Config, tasks []Task) (*Runner, error) {
	if cfg.Quantum < ClockTick {
		return nil, fmt.Errorf("osproc: quantum %v is below the /proc accounting tick %v", cfg.Quantum, ClockTick)
	}
	r := newRunnerSkeleton(cfg)
	for _, t := range tasks {
		if err := r.sched.Add(t.ID, t.Share); err != nil {
			return nil, err
		}
	}
	requested, live := 0, 0
	for _, t := range tasks {
		var alive []int
		for _, pid := range t.PIDs {
			requested++
			if err := r.sys.Stop(pid); err != nil {
				if classify(err) == errGone {
					r.health.vanished.Add(1)
					r.errf("stop pid %d at startup: %v (already gone)", pid, err)
					continue
				}
				r.Release()
				return nil, fmt.Errorf("osproc: cannot stop pid %d: %w", pid, err)
			}
			// Baseline after the stop so the baseline covers all CPU
			// consumed up to suspension; a PID that died in the window
			// (or turns out to be a zombie) is dropped.
			st, err := r.readStat(pid)
			if err != nil || st.State == 'Z' {
				_ = r.sys.Cont(pid) // harmless if gone
				r.sys.Forget(pid)
				r.health.vanished.Add(1)
				if err != nil {
					r.errf("baseline pid %d at startup: %v", pid, err)
				} else {
					r.errf("baseline pid %d at startup: zombie", pid)
				}
				continue
			}
			r.suspended[pid] = true
			r.known[pid] = pidState{cpu: st.CPU, start: st.Start}
			alive = append(alive, pid)
			live++
		}
		r.targets[t.ID] = alive
		if t.PGID != 0 && len(alive) > 0 && r.verifyGroup(t.ID, t.PGID, alive) {
			r.groups[t.ID] = t.PGID
		}
	}
	if requested > 0 && live == 0 {
		r.Release()
		return nil, ErrNoLiveProcess
	}
	return r, nil
}

// verifyGroup confirms via getpgid that every member PID actually
// belongs to the claimed process group before one-syscall group
// signalling is enabled for the task. A claimed-but-wrong PGID would
// otherwise stop unrelated processes or miss members; mixed or
// unverifiable memberships fall back to per-PID delivery.
func (r *Runner) verifyGroup(id core.TaskID, pgid int, pids []int) bool {
	for _, pid := range pids {
		got, err := r.sys.Pgid(pid)
		if err != nil || got != pgid {
			r.errf("task %d: pid %d is not in process group %d (pgid=%d err=%v); using per-PID signalling",
				id, pid, pgid, got, err)
			return false
		}
	}
	return true
}

// newRunnerSkeleton builds a Runner with its maps, clock, scheduler, and
// telemetry wired but no tasks registered; NewRunner and
// NewRunnerFromState populate it.
func newRunnerSkeleton(cfg Config) *Runner {
	if cfg.Sys == nil {
		cfg.Sys = RealSys{}
	}
	cfg.Overload = cfg.Overload.withDefaults()
	r := &Runner{
		cfg:       cfg,
		sys:       cfg.Sys,
		targets:   make(map[core.TaskID][]int),
		known:     make(map[int]pidState),
		badSig:    make(map[int]int),
		badRead:   make(map[int]int),
		groups:    make(map[core.TaskID]int),
		suspended: make(map[int]bool),
		baseQ:     cfg.Quantum,
		now:       time.Now,
	}
	if cfg.Clock != nil {
		r.now = cfg.Clock
	}
	base := cfg.Quantum / 64
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	r.retry = backoff.New(base, cfg.Quantum/8, cfg.BackoffSeed)
	r.start = r.now()
	r.tracer = obs.Stamp(func() time.Duration {
		return r.now().Sub(r.start)
	}, cfg.Observer)
	r.sched = core.New(core.Config{
		Quantum:             cfg.Quantum,
		DisableLazySampling: cfg.DisableLazySampling,
		OnCycle:             cfg.OnCycle,
		Observer:            r.tracer,
	})
	r.health.effQuantumNS.Store(int64(cfg.Quantum))
	if cfg.Metrics != nil {
		r.registerMetrics(cfg.Metrics)
	}
	return r
}

// emit delivers a runner-originated event (reconfig, degrade) to the
// stamped observer.
func (r *Runner) emit(e obs.Event) {
	if r.tracer != nil {
		r.tracer.Observe(e)
	}
}

// phase brackets the runner's own control-loop phases (signal, sleep) in
// the event stream; the core emits the in-quantum phases itself.
func (r *Runner) phase(k obs.Kind, p obs.Phase) {
	if r.tracer != nil {
		r.tracer.Observe(obs.Event{Kind: k, Tick: r.sched.Tick(), Task: -1, N: int(p)})
	}
}

// Scheduler exposes the underlying core scheduler for inspection.
func (r *Runner) Scheduler() *core.Scheduler { return r.sched }

// Ticks returns the number of quanta processed.
func (r *Runner) Ticks() int64 { return r.ticks }

// Health returns a snapshot of the runner's fault and timing telemetry.
// Safe to call from any goroutine.
func (r *Runner) Health() Health { return r.health.snapshot() }

// Run executes the control loop until the context is cancelled or every
// controlled process has exited. On return — including a panic unwinding
// out of the loop — all still-suspended processes have been resumed: the
// workload is never left frozen.
func (r *Runner) Run(ctx context.Context) error {
	// A timer re-armed with the current effective quantum each pass,
	// rather than a fixed ticker: the overload guard may stretch the
	// quantum mid-run and the loop must slow down with it.
	timer := time.NewTimer(r.EffectiveQuantum())
	defer timer.Stop()
	defer r.Release()
	r.loopMu.Lock()
	r.lastRef = r.now()
	r.lastTick = r.now()
	r.loopMu.Unlock()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			if done := r.Step(); done {
				return nil
			}
			timer.Reset(r.EffectiveQuantum())
		}
	}
}

// EffectiveQuantum returns the quantum currently in force: the
// configured quantum, possibly stretched by the overload guard. Safe to
// call from any goroutine.
func (r *Runner) EffectiveQuantum() time.Duration {
	return time.Duration(r.health.effQuantumNS.Load())
}

// Step runs a single quantum of the algorithm (one or more TickQuantum
// invocations plus the resulting signals). It reports true when no tasks
// remain. Most callers use Run; Step exists for callers integrating with
// their own loop. If a panic escapes Step (from an OnCycle callback, or
// a bug), every suspended process is resumed before the panic continues
// unwinding.
func (r *Runner) Step() (done bool) {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			r.releaseLocked()
			panic(p)
		}
	}()
	if r.inSleep {
		r.inSleep = false
		r.phase(obs.KindPhaseEnd, obs.PhaseSleep)
	}
	effQ := r.EffectiveQuantum()
	now := r.now()
	passes := 1
	if !r.lastTick.IsZero() {
		// Timer-overrun detection: a tick that fires ≥ 2Q after its
		// predecessor means quanta were missed (scheduler stall, slow
		// /proc reads, suspend/resume of the controller itself).
		// Without compensation the cycle silently stretches in wall
		// time — blocked tasks are charged Q per *invocation*, not per
		// elapsed quantum — so issue capped catch-up invocations.
		late := now.Sub(r.lastTick) - effQ
		if late < 0 {
			late = 0
		}
		r.health.noteLateness(late)
		if r.mx != nil {
			r.mx.cycleLateness.Observe(late.Seconds())
		}
		if missed := int64(late / effQ); missed > 0 {
			r.health.missedTicks.Add(missed)
			extra := missed
			if extra > maxCatchUpTicks {
				extra = maxCatchUpTicks
			}
			r.health.catchUpTicks.Add(extra)
			passes += int(extra)
		}
	}
	r.lastTick = now

	if r.cfg.Refresh != nil && r.cfg.RefreshEvery > 0 && now.Sub(r.lastRef) >= r.cfg.RefreshEvery {
		r.lastRef = now
		r.refresh(r.cfg.Refresh())
	}

	cyclesBefore := r.sched.Cycles()
	workBegin := r.now()
	for i := 0; i < passes && !done; i++ {
		done = r.tickOnce()
	}
	// Per-invocation control-loop work drives the §4.2 overload guard:
	// divide by the passes actually run so catch-up bursts are not
	// mistaken for sustained overload.
	r.noteWork(r.now().Sub(workBegin) / time.Duration(passes))

	if r.cfg.Checkpoint != nil && r.sched.Cycles() > cyclesBefore {
		r.cfg.Checkpoint(r.stateLocked())
	}
	if !done {
		r.inSleep = true
		r.phase(obs.KindPhaseBegin, obs.PhaseSleep)
	}
	return done
}

// tickOnce is one algorithm invocation: TickQuantum plus enacting its
// eligibility transitions.
func (r *Runner) tickOnce() bool {
	r.prefetch()
	dec := r.sched.TickQuantum(r.read)
	r.statCache = nil
	r.phase(obs.KindPhaseBegin, obs.PhaseSignal)
	r.enact(dec)
	for _, id := range dec.Dead {
		r.forgetTask(id)
	}
	r.maybeReconcile(dec)
	r.phase(obs.KindPhaseEnd, obs.PhaseSignal)
	r.ticks++
	r.health.ticks.Add(1)
	return r.sched.Len() == 0
}

// sigOp is one pending signal delivery: a single PID, or — when group
// is set — an entire process group owned by task (pid then holds the
// pgid), delivered with one kill(-pgid) syscall.
type sigOp struct {
	pid   int
	task  core.TaskID
	stop  bool
	group bool
}

// enact delivers the quantum's SIGSTOP/SIGCONT batch. A task with a
// verified process group costs one syscall per eligibility flip
// regardless of member count; everything else goes per PID. With more
// than one worker the raw deliveries (including their retry/backoff) run
// concurrently, but strike accounting, drops, and the suspended map are
// updated on the loop goroutine in decision order, so the outcome is
// identical to the sequential path.
func (r *Runner) enact(dec core.Decision) {
	ops := r.sigOps[:0]
	for _, id := range dec.Suspend {
		ops = r.appendOps(ops, id, true)
	}
	for _, id := range dec.Resume {
		ops = r.appendOps(ops, id, false)
	}
	r.sigOps = ops
	if w := r.workers(); w > 1 && len(ops) > 1 {
		if cap(r.sigResults) < len(ops) {
			r.sigResults = make([]sigResult, len(ops))
		}
		results := r.sigResults[:len(ops)]
		fanOut(w, len(ops), func(i int) {
			results[i] = r.deliverOp(ops[i])
		})
		for i, op := range ops {
			r.settleOp(op, results[i])
		}
		return
	}
	for _, op := range ops {
		r.settleOp(op, r.deliverOp(op))
	}
}

// appendOps expands one task's eligibility flip into signal operations:
// a single group op when the task owns a verified process group, else
// one op per member PID.
func (r *Runner) appendOps(ops []sigOp, id core.TaskID, stop bool) []sigOp {
	if pgid, ok := r.groups[id]; ok && len(r.targets[id]) > 0 {
		return append(ops, sigOp{pid: pgid, task: id, stop: stop, group: true})
	}
	for _, pid := range r.targets[id] {
		ops = append(ops, sigOp{pid: pid, task: id, stop: stop})
	}
	return ops
}

// deliverOp performs one op's raw delivery (safe on a pool worker).
func (r *Runner) deliverOp(op sigOp) sigResult {
	if op.group {
		return r.deliverGroupSignal(op.pid, op.stop)
	}
	return r.deliverSignal(op.pid, op.stop)
}

// settleOp applies one delivery's bookkeeping on the loop goroutine.
func (r *Runner) settleOp(op sigOp, res sigResult) {
	if !op.group {
		if r.applySignal(res) {
			r.markSuspended(op.pid, op.stop)
		}
		return
	}
	if res.ok {
		// One syscall covered the whole group: POSIX kill(-pgid) succeeds
		// when it signalled at least one member. A member that exited
		// mid-call simply was not there to signal — the next measurement
		// observes it gone and drops it — so no strikes are charged here
		// and none can be double-charged later. A member the kernel
		// silently skipped (credential change) is caught by the
		// measurement loop's stopped-state check and re-aligned by the
		// reconcile sweep.
		for _, pid := range r.targets[op.task] {
			r.markSuspended(pid, op.stop)
		}
		return
	}
	// The group call failed as a whole: ESRCH (every member already
	// gone), EPERM (members exist but none signalable), or exhausted
	// transient retries. Fall back to per-PID delivery so each member's
	// outcome is settled individually — vanished members are dropped,
	// refusing members are struck at most once each, and no survivor is
	// left in the wrong run state.
	r.errf("%s group %d (task %d): %v; falling back to per-PID delivery",
		sigName(op.stop), op.pid, op.task, res.err)
	for _, pid := range r.targets[op.task] {
		if r.signal(pid, op.stop) {
			r.markSuspended(pid, op.stop)
		}
	}
}

// markSuspended records a delivered signal's effect on the suspended map.
// A resume stores false rather than deleting the entry: a Go map that
// churns inserts and deletes keeps rehashing into larger tables, so
// toggling the value keeps the steady-state loop allocation-free.
// Entries leave with their PID (forgetPID, forgetTask, prune).
func (r *Runner) markSuspended(pid int, stop bool) {
	r.suspended[pid] = stop
}

func sigName(stop bool) string {
	if stop {
		return "stop"
	}
	return "cont"
}

// maybeReconcile runs the full reconciliation sweep only when it can
// matter: something this quantum may have left suspension state
// disagreeing with eligibility (needReconcile: failed signals, refresh,
// reconfig, restore), strikes are outstanding, eligibility moved en masse
// (a cycle grant) or membership changed (deaths) — plus a low-frequency
// safety-net sweep. The sweep itself was the runner's last
// O(N)-per-quantum component after the core went O(due).
func (r *Runner) maybeReconcile(dec core.Decision) {
	const reconcileEvery = 16
	if r.needReconcile ||
		dec.CycleCompleted || len(dec.Dead) > 0 ||
		len(r.badSig) > 0 || len(r.badRead) > 0 ||
		r.ticks%reconcileEvery == 0 {
		r.reconcile()
	}
}

// reconcile retries eligibility enforcement that previously failed. The
// decision stream alone is not enough under faults: a resume that failed
// leaves the PID frozen while its task is eligible — and since the task
// then consumes nothing, no new transition ever fires to retry the
// SIGCONT — while a stop that failed leaves the PID free-riding through
// its task's ineligible phase. Any PID whose actual suspension state
// disagrees with its task's eligibility gets the signal re-sent
// (accumulating unsignalability strikes on failure, so a permanently
// refusing PID is eventually dropped).
func (r *Runner) reconcile() {
	r.needReconcile = false
	for _, id := range r.sched.TaskIDs() {
		st, err := r.sched.State(id)
		if err != nil {
			continue
		}
		for _, pid := range r.targets[id] {
			if st == core.Eligible && r.suspended[pid] {
				if r.signal(pid, false) {
					r.markSuspended(pid, false)
				}
			} else if st == core.Ineligible && !r.suspended[pid] {
				if r.signal(pid, true) {
					r.markSuspended(pid, true)
				}
			}
		}
	}
}

// forgetTask clears every per-PID bookkeeping entry of a task the
// scheduler declared dead — dropping only r.targets would leak known/
// suspended entries for the departed PIDs.
func (r *Runner) forgetTask(id core.TaskID) {
	for _, pid := range r.targets[id] {
		if r.suspended[pid] {
			// Defensive: a dead task's PIDs were observed gone, but if
			// one is merely unreadable, never leave it frozen.
			_ = r.sys.Cont(pid)
			delete(r.suspended, pid)
		}
		delete(r.known, pid)
		delete(r.badSig, pid)
		delete(r.badRead, pid)
		r.sys.Forget(pid)
	}
	delete(r.targets, id)
	delete(r.groups, id)
}

// readStat reads a PID's stat with immediate retries for transient
// errors (/proc read races clear without waiting).
func (r *Runner) readStat(pid int) (st Stat, err error) {
	for attempt := 0; attempt < maxReadAttempts; attempt++ {
		if st, err = r.sys.ReadStat(pid); err == nil {
			return st, nil
		}
		if classify(err) != errTransient {
			return Stat{}, err
		}
		r.health.readRetries.Add(1)
	}
	return Stat{}, err
}

// read is the core.Reader over the Sys surface. Failure handling per
// class: gone/zombie PIDs are dropped (permanent); transiently
// unreadable PIDs are kept and charged nothing this quantum — the
// cumulative counters mean the consumption is charged at the next good
// read, never lost; repeatedly denied PIDs are dropped after
// maxBadPIDStrikes. A PID whose start time changed is an unrelated
// process that inherited the number (PID reuse) and is dropped before a
// single nanosecond of its CPU can be charged to the task.
//
// The §2.4 blocked vote: a principal is blocked only if every PID whose
// state was actually observed is blocked. Unreadable-but-kept PIDs
// abstain — one transient read race must not suppress the blocked charge
// an otherwise fully blocked principal is due. Only when *no* PID could
// be read does the principal report unblocked, keeping the original
// no-charge-on-guess behavior.
func (r *Runner) read(id core.TaskID) (core.Progress, bool) {
	if r.mx != nil {
		begin := r.now()
		defer func() { r.mx.sampleDur.Observe(r.now().Sub(begin).Seconds()) }()
	}
	pids := r.targets[id]
	var consumed time.Duration
	alive := false
	reads := 0          // PIDs whose stat was successfully observed
	sawRunning := false // some observed PID was not blocked
	live := pids[:0]
	for _, pid := range pids {
		st, err := r.cachedStat(pid)
		if err != nil {
			switch classify(err) {
			case errGone:
				r.health.vanished.Add(1)
				r.forgetPID(pid)
			case errDenied:
				r.badRead[pid]++
				if r.badRead[pid] >= maxBadPIDStrikes {
					r.health.unsignalable.Add(1)
					r.errf("read pid %d: %v (dropping after %d denied quanta)", pid, err, r.badRead[pid])
					r.forgetPID(pid)
					continue
				}
				fallthrough
			default:
				// Keep the PID; its run state is unknown, so it
				// abstains from the blocked vote.
				live = append(live, pid)
				alive = true
			}
			continue
		}
		delete(r.badRead, pid)
		if st.State == 'Z' {
			r.health.vanished.Add(1)
			r.forgetPID(pid)
			continue
		}
		if st.State == 'T' && !r.suspended[pid] {
			// The member is stopped though the runner believes it running:
			// a group signal that silently skipped it (POSIX kill(-pgid)
			// succeeds once it signals any one member), or an external
			// SIGSTOP. Adopt the observed state and let the reconcile
			// sweep re-send SIGCONT through the strike machinery, so a
			// partially delivered group resume can never leave a survivor
			// frozen.
			r.suspended[pid] = true
			r.needReconcile = true
		}
		prev, ok := r.known[pid]
		if !ok {
			// No baseline (a join path was skipped): establish one now
			// and charge nothing, so the process's historical CPU is
			// never billed as one quantum's consumption.
			r.known[pid] = pidState{cpu: st.CPU, start: st.Start}
			live = append(live, pid)
			alive = true
			reads++
			if !st.Blocked() {
				sawRunning = true
			}
			continue
		}
		if st.Start != prev.start {
			r.health.reused.Add(1)
			r.errf("pid %d was recycled by the kernel (start %d -> %d); dropping", pid, prev.start, st.Start)
			r.forgetPID(pid)
			continue
		}
		if d := st.CPU - prev.cpu; d > 0 {
			consumed += d
		}
		r.known[pid] = pidState{cpu: st.CPU, start: st.Start}
		live = append(live, pid)
		alive = true
		reads++
		if !st.Blocked() {
			sawRunning = true
		}
	}
	r.targets[id] = live
	if !alive {
		return core.Progress{}, false
	}
	return core.Progress{Consumed: consumed, Blocked: reads > 0 && !sawRunning}, true
}

// forgetPID clears a PID's bookkeeping without touching r.targets (used
// from read, which is rebuilding the target slice it iterates).
func (r *Runner) forgetPID(pid int) {
	delete(r.known, pid)
	delete(r.suspended, pid)
	delete(r.badSig, pid)
	delete(r.badRead, pid)
	r.sys.Forget(pid)
}

// dropPID removes a PID from all bookkeeping and from every task's
// membership (the permanent-failure path for signal delivery).
func (r *Runner) dropPID(pid int) {
	r.forgetPID(pid)
	for id, pids := range r.targets {
		for i, p := range pids {
			if p != pid {
				continue
			}
			nw := make([]int, 0, len(pids)-1)
			nw = append(nw, pids[:i]...)
			nw = append(nw, pids[i+1:]...)
			r.targets[id] = nw
			break
		}
	}
}

// sigResult is the outcome of one raw signal delivery, produced by
// deliverSignal (possibly on a pool worker) and consumed by applySignal
// on the loop goroutine.
type sigResult struct {
	pid  int
	stop bool
	ok   bool  // delivered
	gone bool  // ESRCH: process vanished
	err  error // terminal error when !ok
}

// deliverSignal performs the raw SIGSTOP (stop=true) or SIGCONT delivery
// with classified recovery: transient errors retry with capped
// exponential backoff within the quantum. It touches only the Sys
// surface and atomic health counters, so the signal batcher may run many
// deliveries concurrently; all map bookkeeping is deferred to
// applySignal.
func (r *Runner) deliverSignal(pid int, stop bool) sigResult {
	if r.mx != nil {
		begin := r.now()
		defer func() { r.mx.signalDur.Observe(r.now().Sub(begin).Seconds()) }()
	}
	op := r.sys.Cont
	if stop {
		op = r.sys.Stop
	}
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(pid); err == nil {
			return sigResult{pid: pid, stop: stop, ok: true}
		}
		class := classify(err)
		if class == errGone {
			return sigResult{pid: pid, stop: stop, gone: true, err: err}
		}
		if class == errDenied || attempt >= maxSignalAttempts {
			return sigResult{pid: pid, stop: stop, err: err}
		}
		r.health.sigRetries.Add(1)
		// Jittered so a fleet-wide substrate hiccup never produces
		// lockstep retries across shards; deterministic per
		// (seed, pid, attempt) so fault tests replay exactly.
		r.sys.Sleep(r.retry.Delay(uint64(pid), attempt))
	}
}

// deliverGroupSignal performs one raw kill(-pgid) delivery with the same
// classified recovery as deliverSignal: transient errors retry with
// capped jittered backoff within the quantum; ESRCH and EPERM are
// terminal for the group call, and settleOp falls back to per-PID
// delivery to settle individual members.
func (r *Runner) deliverGroupSignal(pgid int, stop bool) sigResult {
	if r.mx != nil {
		begin := r.now()
		defer func() { r.mx.signalDur.Observe(r.now().Sub(begin).Seconds()) }()
	}
	op := r.sys.ContGroup
	if stop {
		op = r.sys.StopGroup
	}
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(pgid); err == nil {
			return sigResult{pid: pgid, stop: stop, ok: true}
		}
		class := classify(err)
		if class == errGone {
			return sigResult{pid: pgid, stop: stop, gone: true, err: err}
		}
		if class == errDenied || attempt >= maxSignalAttempts {
			return sigResult{pid: pgid, stop: stop, err: err}
		}
		r.health.sigRetries.Add(1)
		r.sys.Sleep(r.retry.Delay(uint64(pgid), attempt))
	}
}

// applySignal settles one delivery's bookkeeping on the loop goroutine:
// ESRCH drops the PID immediately; EPERM (and exhausted retries) count a
// strike, and a PID that keeps refusing signals for maxBadPIDStrikes
// consecutive deliveries is dropped so the remaining workload's
// guarantees survive. Reports whether the signal was delivered.
func (r *Runner) applySignal(res sigResult) bool {
	name := sigName(res.stop)
	if res.ok {
		delete(r.badSig, res.pid)
		return true
	}
	if res.gone {
		r.health.vanished.Add(1)
		r.errf("%s pid %d: %v (vanished)", name, res.pid, res.err)
		r.dropPID(res.pid)
		return false
	}
	r.health.sigFailures.Add(1)
	r.badSig[res.pid]++
	// The delivery failed with the PID still present, so its suspension
	// state may now disagree with its task's eligibility.
	r.needReconcile = true
	if r.badSig[res.pid] >= maxBadPIDStrikes {
		r.health.unsignalable.Add(1)
		r.errf("%s pid %d: %v (unsignalable after %d failed deliveries; dropping)", name, res.pid, res.err, r.badSig[res.pid])
		r.dropPID(res.pid)
	} else {
		r.errf("%s pid %d: %v", name, res.pid, res.err)
	}
	return false
}

// signal is the sequential deliver-then-apply pair, used by the
// single-worker path and by every out-of-band caller (reconcile,
// refresh, restore, reconfigure).
func (r *Runner) signal(pid int, stop bool) bool {
	return r.applySignal(r.deliverSignal(pid, stop))
}

// refresh installs new task memberships. A PID joining the workload is
// baselined *before* it can ever be measured, so its historical CPU is
// not charged to the task as one quantum's consumption; joiners of an
// ineligible task are stopped, and a suspended PID moving into an
// eligible task is resumed. Memberships for tasks the scheduler no
// longer knows are ignored. PIDs that left the workload entirely are
// resumed (never leave a departed process frozen) and forgotten.
func (r *Runner) refresh(m map[core.TaskID][]int) {
	ids := make([]core.TaskID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st, err := r.sched.State(id)
		if err != nil {
			// Task unknown to the scheduler (died mid-run, or the
			// Refresh callback reported an ID that was never
			// registered): its membership has no share to bill to.
			r.health.refreshErrors.Add(1)
			r.errf("refresh: ignoring membership for unknown task %d", id)
			continue
		}
		old := make(map[int]bool, len(r.targets[id]))
		for _, pid := range r.targets[id] {
			old[pid] = true
		}
		live := make([]int, 0, len(m[id]))
		for _, pid := range m[id] {
			if _, have := r.known[pid]; !have {
				bst, err := r.readStat(pid)
				if err != nil || bst.State == 'Z' {
					// Not installable this round; if it is a transient
					// glitch the next refresh retries.
					r.health.refreshErrors.Add(1)
					r.errf("refresh: cannot baseline joining pid %d (err=%v)", pid, err)
					r.sys.Forget(pid)
					continue
				}
				r.known[pid] = pidState{cpu: bst.CPU, start: bst.Start}
			}
			if !old[pid] {
				// Align the joiner's run state with its new task's
				// eligibility (covers both fresh joins and a PID
				// moving between tasks of different states).
				if st == core.Ineligible && !r.suspended[pid] {
					if r.signal(pid, true) {
						r.markSuspended(pid, true)
					}
				} else if st == core.Eligible && r.suspended[pid] {
					if r.signal(pid, false) {
						r.markSuspended(pid, false)
					}
				}
				if _, ok := r.known[pid]; !ok {
					continue // signal() dropped it (ESRCH)
				}
			}
			live = append(live, pid)
		}
		r.targets[id] = live
		if pgid, ok := r.groups[id]; ok {
			// Joiners must be in the verified group, or the task becomes a
			// mixed membership and loses one-syscall signalling: a group
			// kill would miss the outside members.
			for _, pid := range live {
				if old[pid] {
					continue
				}
				if got, err := r.sys.Pgid(pid); err != nil || got != pgid {
					r.errf("refresh: task %d: joining pid %d is outside process group %d (pgid=%d err=%v); reverting to per-PID signalling",
						id, pid, pgid, got, err)
					delete(r.groups, id)
					break
				}
			}
		}
	}
	r.prune()
	// Membership moved under the scheduler; make the next quantum verify
	// the whole suspension/eligibility correspondence.
	r.needReconcile = true
}

// prune forgets bookkeeping for PIDs no longer in any task's membership,
// resuming any that the runner had suspended: a process that left the
// workload must not stay frozen.
func (r *Runner) prune() {
	inUse := make(map[int]bool)
	for _, pids := range r.targets {
		for _, pid := range pids {
			inUse[pid] = true
		}
	}
	for pid, stopped := range r.suspended {
		if inUse[pid] {
			continue
		}
		if stopped {
			if err := r.sys.Cont(pid); err != nil && classify(err) != errGone {
				r.errf("release departed pid %d: %v", pid, err)
			}
		}
		delete(r.suspended, pid)
	}
	for pid := range r.known {
		if !inUse[pid] {
			delete(r.known, pid)
			r.sys.Forget(pid)
		}
	}
	for pid := range r.badSig {
		if !inUse[pid] {
			delete(r.badSig, pid)
		}
	}
	for pid := range r.badRead {
		if !inUse[pid] {
			delete(r.badRead, pid)
		}
	}
}

// releaseAttempts bounds Release's per-PID retries. Release is the last
// line of the "never leave the workload frozen" invariant, so it is far
// more persistent than in-loop signal delivery.
const releaseAttempts = 8

// Release resumes every process the runner has suspended. It is called
// automatically when Run returns (and when a panic unwinds out of Step);
// call it directly if using Step. Idempotent: transient failures are
// retried persistently, and ESRCH (the process died while suspended — it
// can no longer be frozen) is not an error. It also tells the Sys to
// release what it holds for every known PID (RealSys's open stat files);
// a Step after Release simply reopens them. Safe from any goroutine.
func (r *Runner) Release() {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	r.releaseLocked()
}

// releaseLocked is Release's body, for callers already holding loopMu
// (notably Step's panic path, which would deadlock calling Release).
func (r *Runner) releaseLocked() {
	for pid, stopped := range r.suspended {
		delete(r.suspended, pid)
		if !stopped {
			continue
		}
		var err error
		for attempt := 1; attempt <= releaseAttempts; attempt++ {
			if err = r.sys.Cont(pid); err == nil || classify(err) != errTransient {
				break
			}
			r.sys.Sleep(time.Millisecond)
		}
		if err != nil && classify(err) != errGone {
			r.errf("release pid %d: %v", pid, err)
		}
	}
	for pid := range r.known {
		r.sys.Forget(pid)
	}
}

func (r *Runner) errf(format string, args ...any) {
	if r.cfg.OnError != nil {
		r.cfg.OnError(fmt.Errorf("osproc: "+format, args...))
	}
}
