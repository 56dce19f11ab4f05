package osproc

import (
	"testing"

	"alps/internal/core"
)

// TestHeldStatNeverLeaks drives the runner through every path that drops
// a PID and checks, after each quantum, that every PID whose stat the
// Sys still holds is one the runner still has a baseline for — a held
// entry outside that set is a descriptor RealSys would never close — and
// that Release leaves nothing held.
func TestHeldStatNeverLeaks(t *testing.T) {
	const victim = 11
	cases := []struct {
		name    string
		refresh bool // run with a membership Refresh reporting members
		// event makes victim leave the runner's accounting: by a fault
		// the next reads observe, or through a runner entry point.
		event func(fs *FaultSys, r *Runner, members map[core.TaskID][]int) error
	}{
		{"esrch", false, func(fs *FaultSys, _ *Runner, _ map[core.TaskID][]int) error {
			fs.Inject(victim, CallRead, FaultESRCH)
			return nil
		}},
		{"zombie", false, func(fs *FaultSys, _ *Runner, _ map[core.TaskID][]int) error {
			fs.Inject(victim, CallRead, FaultZombie)
			return nil
		}},
		{"pid reuse", false, func(fs *FaultSys, _ *Runner, _ map[core.TaskID][]int) error {
			fs.Reuse(victim, 999)
			return nil
		}},
		{"three eperm strikes", false, func(fs *FaultSys, _ *Runner, _ map[core.TaskID][]int) error {
			fs.Inject(victim, CallRead, FaultEPERM, FaultEPERM, FaultEPERM)
			return nil
		}},
		{"refresh departure", true, func(_ *FaultSys, _ *Runner, members map[core.TaskID][]int) error {
			members[1] = []int{10}
			return nil
		}},
		{"reconfigure removal", false, func(_ *FaultSys, r *Runner, members map[core.TaskID][]int) error {
			delete(members, 1)
			return r.Reconfigure(Reconfig{Remove: []core.TaskID{1}})
		}},
		{"dead task", false, func(fs *FaultSys, _ *Runner, _ map[core.TaskID][]int) error {
			fs.Kill(10)
			fs.Kill(victim)
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFaultSys()
			for _, pid := range []int{10, victim, 20, 30} {
				fs.AddProc(FaultProc{PID: pid, Start: 1})
			}
			members := map[core.TaskID][]int{1: {10, victim}, 2: {20}, 3: {30}}
			var cfg Config
			if tc.refresh {
				cfg.RefreshEvery = fq
				cfg.Refresh = func() map[core.TaskID][]int {
					out := make(map[core.TaskID][]int, len(members))
					for id, pids := range members {
						out[id] = append([]int(nil), pids...)
					}
					return out
				}
			}
			r := newFaultRunner(t, fs, cfg, []Task{
				{ID: 1, Share: 1, PIDs: []int{10, victim}},
				{ID: 2, Share: 2, PIDs: []int{20}},
				{ID: 3, Share: 3, PIDs: []int{30}},
			})
			checkHeld := func(when string) {
				t.Helper()
				for _, pid := range fs.HeldPIDs() {
					if _, ok := r.known[pid]; !ok {
						t.Fatalf("%s: pid %d is held but has no baseline (held %v)", when, pid, fs.HeldPIDs())
					}
				}
			}
			checkHeld("after NewRunner")
			for i := 0; i < 10; i++ {
				stepQuantum(fs, r)
				checkHeld("before the event")
			}
			if err := tc.event(fs, r, members); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				stepQuantum(fs, r)
				checkHeld("after the event")
			}
			if _, ok := r.known[victim]; ok {
				t.Fatalf("pid %d still has a baseline after the event", victim)
			}
			for _, pid := range fs.HeldPIDs() {
				if pid == victim {
					t.Fatalf("pid %d still held after the runner dropped it", victim)
				}
			}
			r.Release()
			if held := fs.HeldPIDs(); len(held) != 0 {
				t.Fatalf("held after Release: %v", held)
			}
		})
	}
}
