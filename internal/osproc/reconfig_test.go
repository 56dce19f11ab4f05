package osproc

import (
	"errors"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

func TestReconfigureSetShare(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 2})
	log := obs.NewEventLog(0)
	r := newFaultRunner(t, fs, Config{Observer: log}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	for i := 0; i < 5; i++ {
		stepQuantum(fs, r)
	}
	if err := r.Reconfigure(Reconfig{SetShares: map[core.TaskID]int64{2: 3}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Scheduler().Share(2); got != 3 {
		t.Errorf("share = %d, want 3", got)
	}
	if evs := log.Filter(obs.KindReconfig); len(evs) != 1 || evs[0].Share != 3 || evs[0].Task != 2 {
		t.Errorf("reconfig events = %v, want one share=3 task=2 event", evs)
	}
	if h := r.Health(); h.Reconfigs != 1 {
		t.Errorf("Reconfigs = %d, want 1", h.Reconfigs)
	}

	// The new ratio takes effect: task 2 consumes ~3x task 1.
	base10, base20 := fs.Proc(10).CPU, fs.Proc(20).CPU
	for i := 0; i < 400; i++ {
		stepQuantum(fs, r)
	}
	ratio := float64(fs.Proc(20).CPU-base20) / float64(fs.Proc(10).CPU-base10)
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("post-reconfig consumption ratio = %.2f, want ~3", ratio)
	}
	r.Release()
}

func TestReconfigureRejectsInvalidAtomically(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 2, PIDs: []int{10}}})
	defer r.Release()

	cases := []Reconfig{
		{Quantum: time.Millisecond},                       // below the accounting tick
		{SetShares: map[core.TaskID]int64{1: 0}},          // non-positive share
		{SetShares: map[core.TaskID]int64{9: 4}},          // unknown task
		{Remove: []core.TaskID{9}},                        // unknown task
		{Remove: []core.TaskID{1, 1}},                     // duplicate
		{Add: []Task{{ID: 1, Share: 1}}},                  // already exists
		{Add: []Task{{ID: 5, Share: 0}}},                  // non-positive share
		{Add: []Task{{ID: 5, Share: 1, PIDs: []int{-4}}}}, // invalid pid
		{Add: []Task{{ID: 5, Share: 1}}},                  // no pids
		{SetPIDs: map[core.TaskID][]int{9: {10}}},         // unknown task
		{SetPIDs: map[core.TaskID][]int{1: {0}}},          // invalid pid
		{SetPIDs: map[core.TaskID][]int{1: {}}},           // would empty the task
		// A batch mixing a valid change with an invalid one must apply
		// neither.
		{SetShares: map[core.TaskID]int64{1: 7}, Add: []Task{{ID: 1, Share: 1}}},
	}
	for _, rc := range cases {
		if err := r.Reconfigure(rc); !errors.Is(err, ErrBadReconfig) {
			t.Errorf("Reconfigure(%+v) = %v, want ErrBadReconfig", rc, err)
		}
	}
	if got, _ := r.Scheduler().Share(1); got != 2 {
		t.Errorf("share = %d after rejected batches, want 2 (unchanged)", got)
	}
	if r.Scheduler().Quantum() != fq {
		t.Errorf("quantum = %v after rejected batches, want %v", r.Scheduler().Quantum(), fq)
	}
	if h := r.Health(); h.Reconfigs != 0 {
		t.Errorf("Reconfigs = %d after rejected batches, want 0", h.Reconfigs)
	}
}

func TestReconfigureQuantum(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	log := obs.NewEventLog(0)
	r := newFaultRunner(t, fs, Config{Observer: log}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	defer r.Release()
	if err := r.Reconfigure(Reconfig{Quantum: 40 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if r.EffectiveQuantum() != 40*time.Millisecond {
		t.Errorf("effective quantum = %v, want 40ms", r.EffectiveQuantum())
	}
	if r.Scheduler().Quantum() != 40*time.Millisecond {
		t.Errorf("scheduler quantum = %v, want 40ms", r.Scheduler().Quantum())
	}
	evs := log.Filter(obs.KindReconfig)
	if len(evs) != 1 || evs[0].Length != 40*time.Millisecond {
		t.Errorf("reconfig events = %v, want one quantum=40ms event", evs)
	}
}

func TestReconfigureAddRemove(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 30, Start: 3})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	for i := 0; i < 3; i++ {
		stepQuantum(fs, r)
	}
	if err := r.Reconfigure(Reconfig{Add: []Task{{ID: 3, Share: 2, PIDs: []int{30}}}}); err != nil {
		t.Fatal(err)
	}
	// The joiner starts ineligible (stopped) with a baseline, like at
	// startup; the loop admits it on a later quantum.
	if !fs.IsStopped(30) {
		t.Error("added pid 30 not stopped at join")
	}
	if ps, ok := r.known[30]; !ok || ps.start != 3 {
		t.Errorf("added pid 30 not baselined: %+v ok=%t", ps, ok)
	}
	for i := 0; i < 20; i++ {
		stepQuantum(fs, r)
	}
	if r.Scheduler().Len() != 2 {
		t.Fatalf("len = %d after add, want 2", r.Scheduler().Len())
	}

	if err := r.Reconfigure(Reconfig{Remove: []core.TaskID{1}}); err != nil {
		t.Fatal(err)
	}
	if fs.IsStopped(10) {
		t.Error("removed task's pid 10 left stopped")
	}
	if _, err := r.Scheduler().State(1); err == nil {
		t.Error("task 1 still registered after remove")
	}
	r.Release()
	if got := fs.StoppedPIDs(); len(got) != 0 {
		t.Errorf("release left PIDs stopped: %v", got)
	}
}

func TestReconfigureSetPIDs(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 11, Start: 2})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	for i := 0; i < 3; i++ {
		stepQuantum(fs, r)
	}
	if err := r.Reconfigure(Reconfig{SetPIDs: map[core.TaskID][]int{1: {11}}}); err != nil {
		t.Fatal(err)
	}
	if got := r.targets[1]; len(got) != 1 || got[0] != 11 {
		t.Errorf("targets = %v, want [11]", got)
	}
	if fs.IsStopped(10) {
		t.Error("departed pid 10 left stopped")
	}
	if _, ok := r.known[11]; !ok {
		t.Error("joining pid 11 not baselined")
	}
	r.Release()
}
