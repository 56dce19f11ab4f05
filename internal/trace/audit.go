package trace

import (
	"fmt"
	"sync"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
)

// AuditorConfig parameterizes an Auditor. The zero value is usable.
type AuditorConfig struct {
	// Window is the sliding-window length in allocation cycles
	// (default 32).
	Window int
	// DriftThreshold is the windowed RMS share error above which the
	// auditor declares drift and fires OnDrift (default 0.10: shares
	// delivered 10% off target, twice the paper's worst Table 2 row).
	DriftThreshold float64
	// OnDrift fires once per excursion when the windowed RMS crosses
	// DriftThreshold (with 20% hysteresis on the way back). It runs on
	// the control loop; wire it to Recorder.Trigger.
	OnDrift func(rms float64)
	// EWMAAlpha enables the EWMA-over-windows estimator exported as
	// alps_audit_rms_share_error_ewma: each completed cycle folds the
	// windowed RMS in with weight alpha. 0 disables smoothing (the gauge
	// then mirrors the raw windowed RMS exactly).
	EWMAAlpha float64
}

// A cycle counts toward convergence when its own RMS share error is
// below convergeThreshold (the §3.1 "within 5% of ideal" criterion);
// convergeStreak consecutive such cycles declare convergence.
const (
	convergeThreshold = 0.05
	convergeStreak    = 3
)

// beatWindow bounds the ring of recent windowed RMS values behind the
// alps_audit_window_beat_ratio gauge.
const beatWindow = 32

// cycleSample is one completed cycle's contribution to the window.
type cycleSample struct {
	ids      []int64
	shares   []float64
	consumed []float64 // seconds
	// §3.2 sampling accounting accumulated over the cycle's quanta.
	potential, measured int64
}

// Auditor is the online accuracy auditor: a sliding-window evaluator of
// the paper's own evaluation metrics, computed continuously instead of
// post-hoc. It consumes both feeds the scheduler already produces —
// the per-cycle CycleRecord (consumption per principal) and the obs
// event stream (eligibility and measurement activity) — and exports:
//
//   - per-principal relative share error over the window (§3.1);
//   - windowed RMS share error vs the target distribution (Table 2),
//     which doubles as the flight recorder's drift trigger;
//   - convergence time, in cycles, after a disturbance (start,
//     Reconfigure, or restart via MarkDisturbance);
//   - the §3.2 sampling-reduction ratio: the fraction of potential
//     per-quantum measurements that lazy sampling avoided;
//   - an EWMA over the windowed RMS and the window beat ratio, which
//     expose a window aliasing against a duty cycle.
//
// The control loop's own cost is not the auditor's to measure: the
// runner's alps_runner_*_duration_seconds histograms time its phases.
type Auditor struct {
	cfg AuditorConfig

	mu   sync.Mutex
	ring []cycleSample
	next int
	n    int

	// Eligibility bookkeeping between cycles (fed by Observe).
	eligible      map[int64]bool
	eligibleCount int
	potential     int64 // current cycle: eligible tasks × quanta
	measured      int64 // current cycle: measurements actually taken

	// Windowed results, recomputed at each cycle completion.
	rms      float64
	perTask  map[int64]float64
	winPot   int64
	winMeas  int64
	drifting bool

	// EWMA-over-windows estimator and the beat-ratio diagnostic ring of
	// recent windowed RMS values.
	ewma     float64
	ewmaInit bool
	beatRing []float64
	beatNext int

	// Convergence tracking.
	cycles          int64
	disturbedAt     int64
	streak          int
	converged       bool
	lastConvergence float64 // cycles; -1 until first measured
	disturbances    int64

	reg        *obs.Registry
	registered map[int64]bool
}

// NewAuditor creates an auditor.
func NewAuditor(cfg AuditorConfig) *Auditor {
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.10
	}
	return &Auditor{
		cfg:             cfg,
		ring:            make([]cycleSample, cfg.Window),
		eligible:        make(map[int64]bool),
		perTask:         make(map[int64]float64),
		lastConvergence: -1,
		registered:      make(map[int64]bool),
	}
}

// Observe implements obs.Observer, tracking the eligible set so the
// §3.2 ratio can compare measurements taken against the measurements a
// non-lazy controller would have taken (one per eligible task per
// quantum).
func (a *Auditor) Observe(e obs.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch e.Kind {
	case obs.KindQuantumStart:
		a.potential += int64(a.eligibleCount)
	case obs.KindMeasure:
		a.measured++
	case obs.KindTransition:
		if e.Eligible && !a.eligible[e.Task] {
			a.eligible[e.Task] = true
			a.eligibleCount++
		} else if !e.Eligible && a.eligible[e.Task] {
			delete(a.eligible, e.Task)
			a.eligibleCount--
		}
	case obs.KindDead:
		if a.eligible[e.Task] {
			delete(a.eligible, e.Task)
			a.eligibleCount--
		}
	case obs.KindReconfig:
		a.markDisturbanceLocked()
	}
}

// OnCycle feeds one completed allocation cycle. Chain it into the
// substrate's OnCycle callback.
func (a *Auditor) OnCycle(rec core.CycleRecord) {
	s := cycleSample{
		ids:      make([]int64, len(rec.Tasks)),
		shares:   make([]float64, len(rec.Tasks)),
		consumed: make([]float64, len(rec.Tasks)),
	}
	for i, t := range rec.Tasks {
		s.ids[i] = int64(t.ID)
		s.shares[i] = float64(t.Share)
		s.consumed[i] = t.Consumed.Seconds()
	}

	a.mu.Lock()
	s.potential, s.measured = a.potential, a.measured
	a.potential, a.measured = 0, 0

	old := a.ring[a.next]
	a.ring[a.next] = s
	a.next = (a.next + 1) % len(a.ring)
	if a.n < len(a.ring) {
		a.n++
	} else {
		a.winPot -= old.potential
		a.winMeas -= old.measured
	}
	a.winPot += s.potential
	a.winMeas += s.measured

	a.cycles++
	a.recomputeLocked(s)

	// Diagnostics ride on every completed cycle: the beat ring feeds the
	// wobble gauge and the EWMA estimator smooths the windowed RMS.
	if len(a.beatRing) < beatWindow {
		a.beatRing = append(a.beatRing, a.rms)
	} else {
		a.beatRing[a.beatNext] = a.rms
		a.beatNext = (a.beatNext + 1) % beatWindow
	}
	if a.cfg.EWMAAlpha > 0 {
		if !a.ewmaInit {
			a.ewma, a.ewmaInit = a.rms, true
		} else {
			a.ewma = a.cfg.EWMAAlpha*a.rms + (1-a.cfg.EWMAAlpha)*a.ewma
		}
	}

	var fire func(rms float64)
	var rms float64
	if a.n == len(a.ring) && a.rms > a.cfg.DriftThreshold && !a.drifting {
		a.drifting = true
		fire, rms = a.cfg.OnDrift, a.rms
	} else if a.drifting && a.rms < 0.8*a.cfg.DriftThreshold {
		a.drifting = false
	}
	a.mu.Unlock()

	if fire != nil {
		fire(rms)
	}
}

// recomputeLocked refreshes the windowed share errors and the
// convergence state machine after the newest sample was pushed.
func (a *Auditor) recomputeLocked(newest cycleSample) {
	a.windowErrorsLocked(newest)

	// Convergence judges each cycle on its own: did THIS cycle deliver
	// shares within the threshold?
	if rms, err := metrics.RMSShareError(newest.consumed, newest.shares); err == nil && rms < convergeThreshold {
		a.streak++
		if !a.converged && a.streak >= convergeStreak {
			a.converged = true
			// Convergence time: cycles from the disturbance to the
			// start of the qualifying streak.
			c := a.cycles - a.disturbedAt - convergeStreak
			if c < 0 {
				c = 0
			}
			a.lastConvergence = float64(c)
		}
	} else {
		a.streak = 0
	}
}

// windowErrorsLocked refreshes the windowed share errors.
func (a *Auditor) windowErrorsLocked(newest cycleSample) {
	// Windowed errors aggregate consumption over the window for the
	// tasks in the newest cycle (membership changes mid-window drop out
	// with their cycles).
	current := make(map[int64]int, len(newest.ids))
	for i, id := range newest.ids {
		current[id] = i
	}
	consumed := make([]float64, len(newest.ids))
	for i := 0; i < a.n; i++ {
		s := a.ring[(a.next-1-i+len(a.ring)+len(a.ring))%len(a.ring)]
		for j, id := range s.ids {
			if k, ok := current[id]; ok {
				consumed[k] += s.consumed[j]
			}
		}
	}
	for id := range a.perTask {
		if _, ok := current[id]; !ok {
			delete(a.perTask, id)
		}
	}
	if errs, err := metrics.ShareErrors(consumed, newest.shares); err == nil {
		for i, e := range errs {
			a.perTask[newest.ids[i]] = e
			a.registerTaskLocked(newest.ids[i])
		}
		// Cannot fail: ShareErrors just accepted the same input.
		a.rms, _ = metrics.RMSShareError(consumed, newest.shares)
	}
}

// registerTaskLocked exports a per-task share-error gauge the first time
// a task appears (idempotent thereafter).
func (a *Auditor) registerTaskLocked(id int64) {
	if a.reg == nil || a.registered[id] {
		return
	}
	a.registered[id] = true
	a.reg.GaugeFunc(fmt.Sprintf(`alps_audit_share_error{task="%d"}`, id),
		"Per-principal relative share error over the audit window (§3.1).",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.perTask[id]
		})
}

// MarkDisturbance resets the convergence clock, e.g. after a restart
// from checkpoint. Reconfigure is detected automatically from the event
// stream.
func (a *Auditor) MarkDisturbance() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.markDisturbanceLocked()
}

func (a *Auditor) markDisturbanceLocked() {
	a.disturbedAt = a.cycles
	a.streak = 0
	a.converged = false
	a.disturbances++
}

// Reconfigure adjusts the audit window length (cycles) and the drift
// threshold at runtime — the /admin/config hooks. A non-positive
// argument leaves that knob unchanged. Resizing keeps the newest
// min(n, window) samples and recomputes the windowed results in place,
// so the exported gauges never mix window lengths.
func (a *Auditor) Reconfigure(window int, drift float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if drift > 0 {
		a.cfg.DriftThreshold = drift
	}
	if window <= 0 || window == len(a.ring) {
		return
	}
	keep := a.n
	if keep > window {
		keep = window
	}
	nr := make([]cycleSample, window)
	for i := 0; i < keep; i++ { // i-th newest lands at nr[keep-1-i]
		nr[keep-1-i] = a.ring[(a.next-1-i+2*len(a.ring))%len(a.ring)]
	}
	a.cfg.Window = window
	a.ring = nr
	a.n = keep
	a.next = keep % window
	a.winPot, a.winMeas = 0, 0
	for i := 0; i < keep; i++ {
		a.winPot += nr[i].potential
		a.winMeas += nr[i].measured
	}
	if keep > 0 {
		a.windowErrorsLocked(nr[keep-1])
	}
}

// Thresholds returns the current audit window length (cycles) and
// drift threshold — the values /admin/config reports.
func (a *Auditor) Thresholds() (window int, drift float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ring), a.cfg.DriftThreshold
}

// RMSShareError returns the windowed RMS share error.
func (a *Auditor) RMSShareError() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rms
}

// RMSShareErrorEWMA returns the EWMA-over-windows share-error
// estimator, or the raw windowed RMS when EWMAAlpha is 0 — readers get
// the best available estimate either way.
func (a *Auditor) RMSShareErrorEWMA() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.EWMAAlpha <= 0 || !a.ewmaInit {
		return a.rms
	}
	return a.ewma
}

// WindowBeatRatio returns (max-min)/mean of the recent windowed RMS
// values — near 0 when the estimator is steady, rising toward 1 when
// the window beats against a duty cycle.
func (a *Auditor) WindowBeatRatio() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return metrics.BeatRatio(a.beatRing)
}

// ConvergenceCycles returns the last measured convergence time in
// cycles, or -1 if the scheduler has not converged since the last
// disturbance was measured.
func (a *Auditor) ConvergenceCycles() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.converged {
		return -1
	}
	return a.lastConvergence
}

// SamplingReductionRatio returns the fraction of potential measurements
// (one per eligible task per quantum) that lazy sampling skipped over
// the window — the §3.2 number, 0 when lazy sampling is disabled.
func (a *Auditor) SamplingReductionRatio() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ratioLocked()
}

func (a *Auditor) ratioLocked() float64 {
	if a.winPot <= 0 {
		return 0
	}
	r := 1 - float64(a.winMeas)/float64(a.winPot)
	if r < 0 {
		return 0
	}
	return r
}

// Drifting reports whether the windowed RMS error currently exceeds the
// drift threshold.
func (a *Auditor) Drifting() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drifting
}

// Register exports the auditor on a metrics registry. Per-task gauges
// appear as tasks appear.
func (a *Auditor) Register(reg *obs.Registry) {
	a.mu.Lock()
	a.reg = reg
	a.mu.Unlock()
	reg.GaugeFunc("alps_audit_rms_share_error",
		"Windowed RMS relative share error vs the target distribution (Table 2).",
		a.RMSShareError)
	reg.GaugeFunc("alps_audit_convergence_cycles",
		"Cycles from the last disturbance (start/Reconfigure/restart) to convergence; -1 while unconverged.",
		a.ConvergenceCycles)
	reg.GaugeFunc("alps_audit_sampling_reduction_ratio",
		"Fraction of potential per-quantum measurements avoided by §2.3 lazy sampling (§3.2).",
		a.SamplingReductionRatio)
	reg.GaugeFunc("alps_audit_rms_share_error_ewma",
		"EWMA-over-windows RMS share error (raw windowed RMS when EWMAAlpha is 0).",
		a.RMSShareErrorEWMA)
	reg.GaugeFunc("alps_audit_window_beat_ratio",
		"(max-min)/mean of recent windowed RMS values; near 0 when steady, near 1 when the window beats against a duty cycle.",
		a.WindowBeatRatio)
	reg.GaugeFunc("alps_audit_window_cycles",
		"Cycles currently in the audit window.",
		func() float64 { a.mu.Lock(); defer a.mu.Unlock(); return float64(a.n) })
	reg.GaugeFunc("alps_audit_drifting",
		"1 while the windowed RMS share error exceeds the drift threshold.",
		func() float64 {
			if a.Drifting() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("alps_audit_disturbances_total",
		"Convergence-clock resets observed (start counts as the first).",
		func() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.disturbances })
}

var _ obs.Observer = (*Auditor)(nil)
var _ obs.Observer = (*Recorder)(nil)
