package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// breakdownSizes are the idle-fleet sleeper counts --breakdown tries, in
// order, until the median Step exceeds half of Q.
var breakdownSizes = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1200, 1500, 2000, 3000, 4000}

// breakdownPoint is one measured fleet size.
type breakdownPoint struct {
	Children  int     `json:"children"`
	StepP50   float64 `json:"step_p50_ms"`
	StepP99   float64 `json:"step_p99_ms"`
	CPUPerQ   float64 `json:"ctl_cpu_us_per_q"`
	QuantaPS  float64 `json:"quanta_per_s"`
	EffQuantM float64 `json:"eff_quantum_ms"`
	Degrades  int64   `json:"overload_degrades"`
}

// runBreakdown measures the §4.2 breakdown: idle-fleet grows until the
// untraced median Step exceeds half of Q, the overload guard's degrade
// threshold. That fleet size is breakdown_n. Ungated: it is a reference
// figure, not a workload.
func runBreakdown(seed int64, seconds time.Duration, work string, newFleet func() *fleet) int {
	var points []breakdownPoint
	breakdownN := 0
	for _, n := range breakdownSizes {
		wl, err := genWorkload("idle-fleet", seed, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		f := newFleet()
		if err := f.spawn(wl); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		time.Sleep(time.Second)
		res, err := measure(wl, f, runOpts{seconds: seconds, ckptPath: filepath.Join(work, "state.ckpt")})
		f.kill()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
		}
		if len(res.problems) > 0 {
			return 1
		}
		m := endToEnd(res, 0)
		pt := breakdownPoint{
			Children: n, StepP50: m["step_p50_ms"].Value, StepP99: quantile(durationsMs(res.steps), 0.99),
			CPUPerQ: m["ctl_cpu_us_per_q"].Value, QuantaPS: m["quanta_per_s"].Value,
			EffQuantM: float64(res.health.EffectiveQuantum) / 1e6, Degrades: res.health.OverloadDegrades,
		}
		points = append(points, pt)
		fmt.Fprintf(os.Stderr, "perfbench: breakdown n=%d: step p50 %.3fms p99 %.3fms, %.0fus CPU/q, %.1f q/s, eff Q %.0fms, %d degrades\n",
			n, pt.StepP50, pt.StepP99, pt.CPUPerQ, pt.QuantaPS, pt.EffQuantM, pt.Degrades)
		if pt.StepP50 > float64(quantum)/2/1e6 {
			breakdownN = n
			break
		}
	}
	out, err := json.Marshal(struct {
		BreakdownN int              `json:"breakdown_n"`
		Points     []breakdownPoint `json:"points"`
	}{breakdownN, points})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
