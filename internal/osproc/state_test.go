package osproc

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"alps/internal/core"
)

// crashRunner builds a runner over fs, steps it mid-cycle, and then
// "crashes" it: the state is captured and the runner abandoned without
// Release, exactly as a SIGKILLed scheduler leaves the world — stopped
// PIDs still stopped, no cleanup.
func crashRunner(t *testing.T, fs *FaultSys) RunnerState {
	t.Helper()
	r := newFaultRunner(t, fs, Config{}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 3, PIDs: []int{20, 21}},
	})
	// Step until the eligibility partition is mixed, so the restore has
	// both SIGCONT and SIGSTOP work to re-enact.
	for i := 0; i < 40; i++ {
		stepQuantum(fs, r)
		if len(fs.StoppedPIDs()) > 0 && len(fs.StoppedPIDs()) < 3 {
			break
		}
	}
	if n := len(fs.StoppedPIDs()); n == 0 || n == 3 {
		t.Fatalf("could not reach a mixed partition: stopped=%v", fs.StoppedPIDs())
	}
	return r.State()
}

func TestStateRestoreResumesMidCycle(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 2})
	fs.AddProc(FaultProc{PID: 21, Start: 3})
	st := crashRunner(t, fs)

	// Scheduler outage: the unstopped processes keep consuming CPU that
	// must never be charged to their tasks.
	fs.Advance(5 * time.Second)

	r2, err := NewRunnerFromState(Config{Sys: fs}, st)
	if err != nil {
		t.Fatal(err)
	}
	r2.now = fs.Now
	r2.lastTick = fs.Now()

	// The restored scheduler continues the dead instance's cycle: same
	// allowances, carryover, counters, partition.
	if got := r2.Scheduler().Snapshot(); !reflect.DeepEqual(got, st.Sched) {
		t.Errorf("restored scheduler diverges from checkpoint:\n got %+v\nwant %+v", got, st.Sched)
	}

	// The OS partition was re-enacted from task eligibility.
	eligible := map[core.TaskID]bool{}
	for _, ts := range st.Sched.Tasks {
		eligible[ts.ID] = ts.Eligible
	}
	for _, rec := range st.Tasks {
		for _, pr := range rec.PIDs {
			if want := !eligible[rec.ID]; fs.IsStopped(pr.PID) != want {
				t.Errorf("pid %d stopped=%t, want %t (task %d eligible=%t)",
					pr.PID, fs.IsStopped(pr.PID), want, rec.ID, eligible[rec.ID])
			}
		}
	}

	// Re-baselined at the current counters: outage CPU is not charged.
	for pid, ps := range r2.known {
		if cur := fs.Proc(pid).CPU; ps.cpu != cur {
			t.Errorf("pid %d baseline %v, want current counter %v", pid, ps.cpu, cur)
		}
	}

	// And the loop keeps scheduling: all tasks still present, ticks
	// advance, release leaves nothing frozen.
	for i := 0; i < 30; i++ {
		stepQuantum(fs, r2)
	}
	if r2.Scheduler().Len() != 2 {
		t.Errorf("restored runner lost tasks: len=%d", r2.Scheduler().Len())
	}
	r2.Release()
	if got := fs.StoppedPIDs(); len(got) != 0 {
		t.Errorf("release left PIDs stopped: %v", got)
	}
}

// A PID the dead instance left SIGSTOPped whose task is eligible must be
// resumed by the restore, even if the capture said "suspended".
func TestRestoreFreesEligibleStoppedPID(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 2})
	fs.AddProc(FaultProc{PID: 21, Start: 3})
	st := crashRunner(t, fs)

	// Freeze every workload PID, as a crash mid-transition might.
	for _, pid := range []int{10, 20, 21} {
		_ = fs.Stop(pid)
	}
	r2, err := NewRunnerFromState(Config{Sys: fs}, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range st.Sched.Tasks {
		if !ts.Eligible {
			continue
		}
		for _, pid := range r2.targets[ts.ID] {
			if fs.IsStopped(pid) {
				t.Errorf("eligible pid %d still stopped after restore", pid)
			}
		}
	}
	r2.Release()
}

func TestRestoreDropsVanishedAndReusedPIDs(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 2})
	fs.AddProc(FaultProc{PID: 21, Start: 3})
	st := crashRunner(t, fs)

	fs.Kill(10)      // task 1's only PID: gone
	fs.Reuse(21, 99) // task 2 partially survives
	logMark := len(fs.Log)

	r2, err := NewRunnerFromState(Config{Sys: fs}, st)
	if err != nil {
		t.Fatal(err)
	}
	h := r2.Health()
	if h.VanishedPIDs != 1 || h.ReusedPIDs != 1 {
		t.Errorf("vanished=%d reused=%d, want 1 and 1", h.VanishedPIDs, h.ReusedPIDs)
	}
	// The recycled PID must never be signalled: it belongs to an
	// unrelated process now.
	for _, line := range fs.Log[logMark:] {
		if strings.HasPrefix(line, "stop 21") || strings.HasPrefix(line, "cont 21") {
			t.Errorf("restore signalled recycled pid 21: %q", line)
		}
	}
	// Task 1 lost its only PID and was removed before the first tick.
	if _, err := r2.Scheduler().State(1); err == nil {
		t.Error("task 1 still registered with no live PID")
	}
	if got := r2.targets[2]; len(got) != 1 || got[0] != 20 {
		t.Errorf("task 2 targets = %v, want [20]", got)
	}
	r2.Release()
}

func TestRestoreAllGone(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 2})
	fs.AddProc(FaultProc{PID: 21, Start: 3})
	st := crashRunner(t, fs)
	fs.Kill(10)
	fs.Kill(20)
	fs.Kill(21)
	if _, err := NewRunnerFromState(Config{Sys: fs}, st); !errors.Is(err, ErrNoLiveProcess) {
		t.Fatalf("err = %v, want ErrNoLiveProcess", err)
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	st := RunnerState{
		Sched: core.Snapshot{
			Quantum: fq,
			Tasks:   []core.TaskSnapshot{{ID: 1, Share: 2, Eligible: true}},
		},
		Tasks:       []TaskRecord{{ID: 1, Share: 2, PIDs: []PIDRecord{{PID: 10, Start: 1}}}},
		BaseQuantum: fq,
	}
	cases := []struct {
		name string
		mut  func(*RunnerState)
		want error
	}{
		{"tiny base quantum", func(s *RunnerState) { s.BaseQuantum = time.Millisecond }, ErrBadState},
		{"negative degrade level", func(s *RunnerState) { s.DegradeLevel = -1 }, ErrBadState},
		{"record/snapshot mismatch", func(s *RunnerState) { s.Tasks[0].Share = 7 }, ErrBadState},
		{"orphan record", func(s *RunnerState) { s.Tasks[0].ID = 9 }, ErrBadState},
		{"corrupt scheduler snapshot", func(s *RunnerState) { s.Sched.Tasks[0].Allowance = time.Second }, core.ErrBadSnapshot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := st
			bad.Sched.Tasks = append([]core.TaskSnapshot(nil), st.Sched.Tasks...)
			bad.Tasks = append([]TaskRecord(nil), st.Tasks...)
			bad.Tasks[0].PIDs = append([]PIDRecord(nil), st.Tasks[0].PIDs...)
			tc.mut(&bad)
			if _, err := NewRunnerFromState(Config{Sys: fs}, bad); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// Fail closed: the workload was not touched.
			if fs.IsStopped(10) {
				t.Error("rejected restore left pid 10 stopped")
			}
		})
	}
}

// After a restore the runner must still converge to proportional shares:
// the checkpoint's allowance state is a valid continuation point, not
// just a display artifact.
func TestRestoreConverges(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 2})
	st := func() RunnerState {
		r := newFaultRunner(t, fs, Config{}, []Task{
			{ID: 1, Share: 1, PIDs: []int{10}},
			{ID: 2, Share: 3, PIDs: []int{20}},
		})
		for i := 0; i < 7; i++ {
			stepQuantum(fs, r)
		}
		return r.State()
	}()

	fs.Advance(time.Second) // outage
	r2, err := NewRunnerFromState(Config{Sys: fs}, st)
	if err != nil {
		t.Fatal(err)
	}
	r2.now = fs.Now
	r2.lastTick = fs.Now()

	base10, base20 := fs.Proc(10).CPU, fs.Proc(20).CPU
	for i := 0; i < 400; i++ {
		stepQuantum(fs, r2)
	}
	got10 := fs.Proc(10).CPU - base10
	got20 := fs.Proc(20).CPU - base20
	ratio := float64(got20) / float64(got10)
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("post-restore consumption ratio = %.2f (10: %v, 20: %v), want ~3", ratio, got10, got20)
	}
	r2.Release()
}
