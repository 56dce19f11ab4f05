package main

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"alps/internal/ckpt"
	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
	"alps/internal/osproc"
	"alps/internal/trace"
	"alps/internal/tshist"
)

// This file rebuilds the observability stack `alps spawn -http -state`
// attaches to its Runner, at the cmd/alps flag defaults. cmd/alps keeps
// that wiring in package main, so it cannot be imported; each function
// below names the one it mirrors and must be kept in step with it.
//
// Departures, all deliberate:
//   - log lines go to a discarding handler (same formatting cost, no
//     noise on the benchmark's stderr);
//   - no HTTP listener: the benchmark calls Registry.WritePrometheus
//     once per second instead, standing in for a scraper;
//   - no flight-recorder dump directory (-trace-dir is off by default).

// Flag defaults of cmd/alps (commonFlags in cmd/alps/main.go).
const (
	quantum       = 20 * time.Millisecond // -q
	maxQuantum    = 40 * time.Millisecond // -maxq
	auditWindow   = 32                    // -audit-window
	auditDrift    = 0.10                  // -audit-drift
	auditEWMA     = 0.1                   // -audit-ewma
	timelineEvery = time.Second           // -timeline-every
	scrapeEvery   = time.Second           // one /metrics scrape per second

	latenessSpikeQuanta = 2                // cmd/alps/observe.go
	healthLogEvery      = 30 * time.Second // cmd/alps/observe.go
	shareErrHelp        = "Per-principal relative share error per cycle: |consumed/total - share/S| / (share/S)."
)

var errlog = slog.New(slog.NewTextHandler(io.Discard, nil))

// stack mirrors obsStack (cmd/alps/observe.go) minus the HTTP, admin and
// fleet-link plumbing the benchmark does not start.
type stack struct {
	reg     *obs.Registry
	journal *obs.Journal
	rec     *trace.Recorder
	aud     *trace.Auditor
	hist    *tshist.Store
	ckw     *ckpt.Writer
	quantum time.Duration

	lastHealthLog time.Time
	lateness      func() time.Duration

	fleetMu       sync.Mutex
	fleetConsumed map[int64]float64
	fleetCycles   int64
}

// newStack mirrors newObsStack (cmd/alps/observe.go) with the flag
// defaults, plus the checkpoint writer runUntilSignal builds for -state
// (newCheckpointWriter, cmd/alps/persist.go). onWrite, if non-nil, also
// sees every checkpoint write (the traced run times them).
func newStack(ckptPath string, onWrite func(time.Duration, error)) *stack {
	st := &stack{
		reg:           obs.NewRegistry(),
		journal:       obs.NewJournal(obs.DefaultJournalSize),
		fleetConsumed: make(map[int64]float64),
	}
	st.rec = trace.NewRecorder(trace.RecorderConfig{
		OnDump: func(d trace.Dump) {
			errlog.Warn("flight recorder dump", "reason", d.Reason,
				"seq", d.Seq, "events", len(d.Events))
		},
	})
	st.aud = trace.NewAuditor(trace.AuditorConfig{
		Window:         auditWindow,
		DriftThreshold: auditDrift,
		EWMAAlpha:      auditEWMA,
		OnDrift: func(rms float64) {
			if st.rec.Trigger("share_drift") {
				errlog.Warn("share-error drift", "rms", fmt.Sprintf("%.3f", rms))
			}
		},
	})
	st.rec.Register(st.reg)
	st.aud.Register(st.reg)
	st.hist = tshist.New(tshist.Config{Source: st.reg, Every: timelineEvery})
	st.ckw = newCheckpointWriter(ckptPath, st, onWrite)
	return st
}

// newCheckpointWriter mirrors newCheckpointWriter (cmd/alps/persist.go).
func newCheckpointWriter(path string, st *stack, also func(time.Duration, error)) *ckpt.Writer {
	writes := st.reg.Counter("alps_checkpoint_writes_total",
		"State checkpoints written to the -state file (cycles may coalesce).")
	errs := st.reg.Counter("alps_checkpoint_errors_total",
		"Checkpoint writes that failed (scheduling continues).")
	dur := st.reg.Histogram("alps_checkpoint_write_seconds",
		"Wall time of one atomic checkpoint write.", obs.LatencyBuckets)
	var mu sync.Mutex
	lastErr := ""
	return ckpt.NewWriter(path, func(d time.Duration, err error) {
		if also != nil {
			also(d, err)
		}
		if err != nil {
			errs.Add(1)
			st.rec.Trigger("checkpoint_failure")
			mu.Lock()
			repeat := err.Error() == lastErr
			lastErr = err.Error()
			mu.Unlock()
			if !repeat {
				errlog.Error("checkpoint write failed", "path", path, "err", err)
			}
			return
		}
		dur.Observe(d.Seconds())
		writes.Add(1)
	})
}

// wire mirrors obsStack.wire (cmd/alps/observe.go) with no -log cycle
// logger, plus the -state Checkpoint hook from runUntilSignal
// (cmd/alps/main.go), on the config commonOpts.config builds.
func (st *stack) wire(cfg *osproc.Config) {
	st.quantum = cfg.Quantum
	cfg.Metrics = st.reg
	cfg.Observer = obs.Multi(obs.NewMetricsObserver(st.reg), st.rec, st.aud)
	cfg.OnCycle = func(rec core.CycleRecord) {
		st.recordCycle(rec)
		st.aud.OnCycle(rec)
	}
	cfg.Checkpoint = func(s osproc.RunnerState) { st.ckw.Offer(s) }
}

// recordCycle mirrors obsStack.recordCycle (cmd/alps/observe.go).
func (st *stack) recordCycle(rec core.CycleRecord) {
	e := obs.JournalEntry{
		Cycle:  rec.Index,
		Tick:   rec.Tick,
		At:     time.Now(),
		Length: rec.Length,
		Tasks:  make([]obs.JournalTask, 0, len(rec.Tasks)),
	}
	if st.lateness != nil {
		e.Lateness = st.lateness()
	}
	consumed := make([]float64, 0, len(rec.Tasks))
	shares := make([]float64, 0, len(rec.Tasks))
	for _, t := range rec.Tasks {
		e.Tasks = append(e.Tasks, obs.JournalTask{
			ID: int64(t.ID), Share: t.Share,
			Consumed: t.Consumed, BlockedQuanta: t.BlockedQuanta,
		})
		consumed = append(consumed, t.Consumed.Seconds())
		shares = append(shares, float64(t.Share))
	}
	st.journal.Append(e)
	st.fleetMu.Lock()
	for _, t := range rec.Tasks {
		st.fleetConsumed[int64(t.ID)] += t.Consumed.Seconds()
	}
	st.fleetCycles++
	st.fleetMu.Unlock()
	if errs, err := metrics.ShareErrors(consumed, shares); err == nil {
		for i, t := range rec.Tasks {
			st.reg.Histogram(
				fmt.Sprintf(`alps_share_error_ratio{task="%d"}`, t.ID),
				shareErrHelp, obs.RatioBuckets,
			).Observe(errs[i])
		}
	}
	if st.quantum > 0 && e.Lateness > latenessSpikeQuanta*st.quantum {
		if st.rec.Trigger("lateness_spike") {
			errlog.Warn("cycle lateness spike", "lateness", e.Lateness, "quantum", st.quantum)
		}
	}
	if now := time.Now(); now.Sub(st.lastHealthLog) >= healthLogEvery {
		st.lastHealthLog = now
		st.logHealthLine(rec.Index)
	}
}

// logHealthLine mirrors obsStack.logHealthLine and obsStack.quantiles
// (cmd/alps/observe.go).
func (st *stack) logHealthLine(cycle int) {
	cl := st.reg.Histogram("alps_runner_cycle_lateness_seconds",
		"Distribution of per-step timer lateness.", obs.LatencyBuckets)
	sd := st.reg.Histogram("alps_runner_sample_duration_seconds",
		"Wall time spent reading one task's progress from /proc.", obs.LatencyBuckets)
	sec := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
	}
	errlog.Info("health",
		"cycle", cycle,
		"lateness_p50", sec(cl.Quantile(0.50)),
		"lateness_p99", sec(cl.Quantile(0.99)),
		"sample_p50", sec(sd.Quantile(0.50)),
		"sample_p99", sec(sd.Quantile(0.99)),
		"rms_share_error", fmt.Sprintf("%.3f", st.aud.RMSShareError()),
		"sampling_reduction", fmt.Sprintf("%.2f", st.aud.SamplingReductionRatio()),
		"convergence_cycles", st.aud.ConvergenceCycles(),
	)
}

// runnerConfig mirrors commonOpts.config (cmd/alps/main.go) at the flag
// defaults: Q=20ms, the overload guard on with maxq 40ms, and one
// sampler per GOMAXPROCS.
func runnerConfig(samplers int) osproc.Config {
	return osproc.Config{
		Quantum:  quantum,
		Samplers: samplers,
		Overload: osproc.OverloadConfig{Enable: true, MaxQuantum: maxQuantum},
	}
}
