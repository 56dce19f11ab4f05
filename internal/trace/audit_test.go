package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
)

// cycleRec builds a two-task CycleRecord with the given consumption.
func cycleRec(index int, c1, c2 time.Duration, s1, s2 int64) core.CycleRecord {
	return core.CycleRecord{
		Index: index,
		Tasks: []core.CycleTask{
			{ID: 1, Share: s1, Consumed: c1},
			{ID: 2, Share: s2, Consumed: c2},
		},
	}
}

func TestAuditorShareError(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 4})
	// Shares 1:3; perfect delivery is 10ms:30ms.
	for i := 0; i < 4; i++ {
		a.OnCycle(cycleRec(i, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	}
	if rms := a.RMSShareError(); rms > 1e-9 {
		t.Errorf("RMS on perfect delivery = %v, want 0", rms)
	}
	// Skew every cycle to 20ms:20ms: actual fractions 0.5/0.5 vs ideal
	// 0.25/0.75 — relative errors 1.0 and 1/3.
	for i := 4; i < 8; i++ {
		a.OnCycle(cycleRec(i, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	}
	want := math.Sqrt((1.0*1.0 + (1.0/3)*(1.0/3)) / 2)
	if rms := a.RMSShareError(); math.Abs(rms-want) > 1e-9 {
		t.Errorf("RMS = %v, want %v", rms, want)
	}
}

func TestAuditorDriftTrigger(t *testing.T) {
	var fired []float64
	a := NewAuditor(AuditorConfig{
		Window: 2, DriftThreshold: 0.1,
		OnDrift: func(rms float64) { fired = append(fired, rms) },
	})
	good := func(i int) core.CycleRecord { return cycleRec(i, 10*time.Millisecond, 10*time.Millisecond, 1, 1) }
	bad := func(i int) core.CycleRecord { return cycleRec(i, 30*time.Millisecond, 10*time.Millisecond, 1, 1) }

	a.OnCycle(good(0))
	if len(fired) != 0 {
		t.Fatal("drift fired before the window filled")
	}
	a.OnCycle(good(1))
	a.OnCycle(bad(2))
	a.OnCycle(bad(3))
	if len(fired) != 1 {
		t.Fatalf("drift fired %d times after sustained skew, want 1", len(fired))
	}
	if !a.Drifting() {
		t.Error("Drifting() false during excursion")
	}
	// Still skewed: no re-fire while inside the excursion.
	a.OnCycle(bad(4))
	if len(fired) != 1 {
		t.Errorf("drift re-fired inside excursion: %v", fired)
	}
	// Recover (hysteresis), then a second excursion fires again.
	for i := 5; i < 9; i++ {
		a.OnCycle(good(i))
	}
	if a.Drifting() {
		t.Error("Drifting() true after recovery")
	}
	a.OnCycle(bad(9))
	a.OnCycle(bad(10))
	if len(fired) != 2 {
		t.Errorf("drift fired %d times across two excursions, want 2", len(fired))
	}
}

func TestAuditorConvergence(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 8})
	if got := a.ConvergenceCycles(); got != -1 {
		t.Errorf("ConvergenceCycles before any data = %v, want -1", got)
	}
	good := func(i int) core.CycleRecord { return cycleRec(i, 10*time.Millisecond, 20*time.Millisecond, 1, 2) }
	bad := func(i int) core.CycleRecord { return cycleRec(i, 25*time.Millisecond, 5*time.Millisecond, 1, 2) }

	// Converges immediately: three good cycles (the streak), zero
	// cycles of settling.
	a.OnCycle(good(0))
	a.OnCycle(good(1))
	if got := a.ConvergenceCycles(); got != -1 {
		t.Errorf("ConvergenceCycles after two good cycles = %v, want -1 (streak is 3)", got)
	}
	a.OnCycle(good(2))
	if got := a.ConvergenceCycles(); got != 0 {
		t.Errorf("ConvergenceCycles = %v, want 0 (converged from the first cycle)", got)
	}

	// A reconfig event resets the clock via the event stream.
	a.Observe(obs.Event{Kind: obs.KindReconfig, Tick: 10, Task: -1})
	if got := a.ConvergenceCycles(); got != -1 {
		t.Errorf("ConvergenceCycles after disturbance = %v, want -1", got)
	}
	// One bad settling cycle, then three good ones: convergence time 1.
	a.OnCycle(bad(3))
	a.OnCycle(good(4))
	a.OnCycle(good(5))
	a.OnCycle(good(6))
	if got := a.ConvergenceCycles(); got != 1 {
		t.Errorf("ConvergenceCycles = %v, want 1 (one settling cycle)", got)
	}
	// MarkDisturbance (the restart path) resets too.
	a.MarkDisturbance()
	if got := a.ConvergenceCycles(); got != -1 {
		t.Errorf("ConvergenceCycles after MarkDisturbance = %v, want -1", got)
	}
}

// TestAuditorSamplingRatio replays the §3.2 accounting: potential
// measurements are one per eligible task per quantum; the ratio is the
// fraction lazy sampling skipped.
func TestAuditorSamplingRatio(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 4})
	// Two tasks become eligible.
	a.Observe(obs.Event{Kind: obs.KindTransition, Task: 1, Eligible: true})
	a.Observe(obs.Event{Kind: obs.KindTransition, Task: 2, Eligible: true})
	// Four quanta with both eligible: potential 8. Two measurements.
	for i := 0; i < 4; i++ {
		a.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: int64(i + 1)})
	}
	a.Observe(obs.Event{Kind: obs.KindMeasure, Task: 1})
	a.Observe(obs.Event{Kind: obs.KindMeasure, Task: 2})
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 10*time.Millisecond, 1, 1))
	if got, want := a.SamplingReductionRatio(), 0.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("SamplingReductionRatio = %v, want %v", got, want)
	}

	// Full sampling (lazy disabled): every eligible task measured every
	// quantum — ratio 0.
	b := NewAuditor(AuditorConfig{Window: 4})
	b.Observe(obs.Event{Kind: obs.KindTransition, Task: 1, Eligible: true})
	for i := 0; i < 4; i++ {
		b.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: int64(i + 1)})
		b.Observe(obs.Event{Kind: obs.KindMeasure, Task: 1})
	}
	b.OnCycle(core.CycleRecord{Tasks: []core.CycleTask{{ID: 1, Share: 1, Consumed: time.Millisecond}}})
	if got := b.SamplingReductionRatio(); got != 0 {
		t.Errorf("full-sampling ratio = %v, want 0", got)
	}
}

func TestAuditorRegister(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAuditor(AuditorConfig{Window: 2})
	a.Register(reg)
	for i := 0; i < 3; i++ { // one convergence streak
		a.OnCycle(cycleRec(i, 10*time.Millisecond, 20*time.Millisecond, 1, 2))
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"alps_audit_rms_share_error",
		"alps_audit_convergence_cycles 0",
		"alps_audit_sampling_reduction_ratio 0",
		"alps_audit_window_cycles 2",
		"alps_audit_drifting 0",
		"alps_audit_disturbances_total 0",
		`alps_audit_share_error{task="1"}`,
		`alps_audit_share_error{task="2"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestAuditorDeadTaskDropsFromWindow: a task that disappears stops
// contributing to the windowed error once it leaves the newest cycle.
func TestAuditorDeadTaskDropsFromWindow(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 2})
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 20*time.Millisecond, 1, 2))
	a.Observe(obs.Event{Kind: obs.KindDead, Task: 2})
	a.OnCycle(core.CycleRecord{
		Index: 1,
		Tasks: []core.CycleTask{{ID: 1, Share: 1, Consumed: 10 * time.Millisecond}},
	})
	if rms := a.RMSShareError(); rms > 1e-9 {
		t.Errorf("RMS with sole surviving task = %v, want 0 (it gets everything it asks)", rms)
	}
}

// feedDutyCycle drives one allocation cycle of the synthetic period-4
// duty pattern into an auditor: task 1 bursts its whole 2s budget every
// fourth cycle, task 2 spreads 2s evenly across the other three. Over
// any aligned 4-cycle span the 1:1 shares are delivered exactly; over a
// misaligned fixed window the measured RMS beats with period 4.
func feedDutyCycle(a *Auditor, k int) {
	var c1, c2 time.Duration
	if k%4 == 0 {
		c1 = 2 * time.Second
	} else {
		c2 = 2 * time.Second / 3
	}
	a.OnCycle(cycleRec(k, c1, c2, 1, 1))
}

// TestAuditorWindowAliasing pins the beat the EWMA estimator exists
// for: the period-4 duty pattern makes a raw 5-cycle window's RMS
// oscillate (the Gunther decay-window beat) although the schedule is
// fair, and the EWMA over the same windows cuts the beat ratio at least
// 5x. With EWMAAlpha 0 the EWMA gauge mirrors the raw RMS exactly.
func TestAuditorWindowAliasing(t *testing.T) {
	raw := NewAuditor(AuditorConfig{Window: 5})
	smooth := NewAuditor(AuditorConfig{Window: 5, EWMAAlpha: 0.1})

	var rawVals, ewmaVals []float64
	for k := 0; k < 100; k++ {
		feedDutyCycle(raw, k)
		feedDutyCycle(smooth, k)
		if got, want := raw.RMSShareErrorEWMA(), raw.RMSShareError(); got != want {
			t.Fatalf("cycle %d: EWMAAlpha 0 gauge %v != raw RMS %v", k, got, want)
		}
		if k >= 50 { // past the EWMA transient
			rawVals = append(rawVals, raw.RMSShareError())
			ewmaVals = append(ewmaVals, smooth.RMSShareErrorEWMA())
		}
	}
	rb, eb := metrics.BeatRatio(rawVals), metrics.BeatRatio(ewmaVals)
	if rb < 0.5 {
		t.Fatalf("raw window shows no beat: beat ratio %v", rb)
	}
	if eb > rb/5 {
		t.Errorf("EWMA beat ratio %v not >=5x below raw %v", eb, rb)
	}
	if got := raw.WindowBeatRatio(); got < 0.5 {
		t.Errorf("WindowBeatRatio = %v, want the raw beat", got)
	}
}

// TestAuditorEWMAEstimator checks the EWMA recursion against a manual
// trace: first windowed RMS seeds it, later ones fold in with alpha.
func TestAuditorEWMAEstimator(t *testing.T) {
	const alpha = 0.25
	a := NewAuditor(AuditorConfig{Window: 1, EWMAAlpha: alpha})
	want := 0.0
	for k := 0; k < 10; k++ {
		// Alternate perfect and fully skewed cycles; window 1 makes the
		// windowed RMS follow each cycle directly.
		if k%2 == 0 {
			a.OnCycle(cycleRec(k, 10*time.Millisecond, 10*time.Millisecond, 1, 1))
		} else {
			a.OnCycle(cycleRec(k, 20*time.Millisecond, 0, 1, 1))
		}
		rms := a.RMSShareError()
		if k == 0 {
			want = rms
		} else {
			want = alpha*rms + (1-alpha)*want
		}
		if got := a.RMSShareErrorEWMA(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("cycle %d: EWMA = %v, want %v", k, got, want)
		}
	}
	// The smoothed estimate must sit strictly between the alternating
	// extremes the raw gauge bounces across.
	ewma := a.RMSShareErrorEWMA()
	if ewma <= 0.05 || ewma >= 0.95 {
		t.Errorf("EWMA %v not strictly between the alternating extremes", ewma)
	}
}

// TestAuditorReconfigure covers the /admin/config hooks: shrinking the
// window keeps only the newest samples (the RMS recomputes in place),
// growing it refills gradually, and the drift threshold updates.
func TestAuditorReconfigure(t *testing.T) {
	NewAuditor(AuditorConfig{Window: 4}).Reconfigure(2, 0.5) // empty: must not panic

	a := NewAuditor(AuditorConfig{Window: 4})
	// Two perfect cycles, then two fully skewed ones (shares 1:3 but
	// equal consumption).
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	a.OnCycle(cycleRec(1, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	a.OnCycle(cycleRec(2, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	a.OnCycle(cycleRec(3, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	mixed := a.RMSShareError()

	// Shrink to the newest two (the skewed ones): the RMS must jump to
	// the pure-skew value immediately, without waiting for a cycle.
	a.Reconfigure(2, 0.42)
	skew := math.Sqrt((1.0*1.0 + (1.0/3)*(1.0/3)) / 2)
	if got := a.RMSShareError(); math.Abs(got-skew) > 1e-9 {
		t.Errorf("RMS after shrink = %v, want %v (newest two cycles)", got, skew)
	}
	if mixed >= skew {
		t.Errorf("mixed-window RMS %v should be below pure-skew %v", mixed, skew)
	}
	if w, d := a.Thresholds(); w != 2 || d != 0.42 {
		t.Errorf("Thresholds = (%d, %v), want (2, 0.42)", w, d)
	}

	// Grow back: kept samples survive, new cycles refill toward the new
	// length.
	a.Reconfigure(6, 0)
	if w, d := a.Thresholds(); w != 6 || d != 0.42 {
		t.Errorf("Thresholds after grow = (%d, %v), want (6, 0.42)", w, d)
	}
	a.OnCycle(cycleRec(4, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	// Window of 3 = 2 kept skewed + 1 new perfect cycle: consumption
	// 50ms:70ms against 1:3 shares gives errors 2/3 and 2/9.
	if got, want := a.RMSShareError(), math.Sqrt((4.0/9+4.0/81)/2); math.Abs(got-want) > 1e-9 {
		t.Errorf("RMS after grow+1 cycle = %v, want %v (2 kept + 1 new cycles)", got, want)
	}

	// The lowered threshold drives the drift hysteresis: fill the window
	// with skew and the excursion fires against 0.42.
	var fired []float64
	b := NewAuditor(AuditorConfig{Window: 2, DriftThreshold: 10, // absurdly high: never fires
		OnDrift: func(rms float64) { fired = append(fired, rms) }})
	b.OnCycle(cycleRec(0, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	b.OnCycle(cycleRec(1, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	if len(fired) != 0 {
		t.Fatal("drift fired below threshold")
	}
	b.Reconfigure(0, 0.1) // window unchanged, threshold now crossable
	b.OnCycle(cycleRec(2, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	if len(fired) != 1 {
		t.Errorf("drift fired %d times after threshold drop, want 1", len(fired))
	}
}

// TestAuditorAliasGaugesRegistered: the estimator gauges appear on the
// registry.
func TestAuditorAliasGaugesRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAuditor(AuditorConfig{Window: 2, EWMAAlpha: 0.2})
	a.Register(reg)
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 20*time.Millisecond, 1, 2))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"alps_audit_rms_share_error_ewma",
		"alps_audit_window_beat_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
