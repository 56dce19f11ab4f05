package coord

import (
	"math"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/fleetobs"
	"alps/internal/metrics"
	"alps/internal/trace"
)

// TestShareErrorOneDefinition feeds one consumption/share vector, with
// a principal that consumed nothing, to the three share-error views:
// the node auditor over a one-cycle window, the fleet auditor, and the
// rebalance planner over one shard. All three must read the same RMS,
// metrics.RMSShareError. Each view's idle-window result is pinned too:
// the node keeps its previous RMS, the fleet reads 0, and Plan reports
// -1.
func TestShareErrorOneDefinition(t *testing.T) {
	shares := map[int64]int64{1: 1, 2: 2, 3: 5}
	consumed := map[int64]float64{1: 0.3, 2: 0.5, 3: 0}
	want, err := metrics.RMSShareError([]float64{0.3, 0.5, 0}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("vector must be unfair for the comparison to mean anything")
	}

	cycle := func(scale float64) core.CycleRecord {
		var rec core.CycleRecord
		for _, id := range []int64{1, 2, 3} {
			rec.Tasks = append(rec.Tasks, core.CycleTask{ID: core.TaskID(id), Share: shares[id],
				Consumed: time.Duration(scale * consumed[id] * float64(time.Second))})
		}
		return rec
	}
	weights := make(map[int64]float64, len(shares))
	for p, w := range shares {
		weights[p] = float64(w)
	}
	idle := map[int64]float64{1: 0, 2: 0, 3: 0}

	node := trace.NewAuditor(trace.AuditorConfig{Window: 1})
	node.OnCycle(cycle(1))
	fleet := fleetobs.NewFleetAuditor(fleetobs.AuditorConfig{})
	fleet.OnRound(consumed, weights, false)
	plan := Plan(PlannerConfig{}, shares, []ShardLoad{{Name: "a", Shares: shares, Consumed: consumed}})

	for _, v := range []struct {
		view string
		got  float64
	}{
		{"node auditor", node.RMSShareError()},
		{"fleet auditor round", fleet.RoundRMSShareError()},
		{"fleet auditor window", fleet.GlobalRMSShareError()},
		{"rebalance plan", plan.GlobalRMS},
	} {
		if math.Abs(v.got-want) > 1e-12 {
			t.Errorf("%s RMS = %v, want %v", v.view, v.got, want)
		}
	}

	node.OnCycle(cycle(0))
	if got := node.RMSShareError(); math.Abs(got-want) > 1e-12 {
		t.Errorf("node RMS after an idle cycle = %v, want the previous %v", got, want)
	}
	fleet.OnRound(idle, weights, false)
	if got := fleet.RoundRMSShareError(); got != 0 {
		t.Errorf("fleet round RMS over an idle round = %v, want 0", got)
	}
	if got := Plan(PlannerConfig{}, shares, []ShardLoad{{Name: "a", Shares: shares, Consumed: idle}}).GlobalRMS; got != -1 {
		t.Errorf("Plan GlobalRMS over an idle window = %v, want -1", got)
	}
}
