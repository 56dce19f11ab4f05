package osproc

import (
	"errors"
	"fmt"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// Live reconfiguration. Production resource managers (Solaris SRM is
// the reference point) change share configuration on a running daemon;
// restarting the scheduler to change a share would throw away exactly
// the allowance/carryover history checkpointing exists to preserve.
// Reconfigure applies a validated batch of changes between quanta:
// validation is complete before the first mutation (reject-on-invalid —
// an invalid batch changes nothing), and each applied change emits one
// obs.KindReconfig event.

// Reconfig is a batch of configuration changes. Zero-valued fields are
// "no change".
type Reconfig struct {
	// Quantum, if nonzero, replaces the configured quantum. It also
	// resets any overload degradation (the operator has spoken).
	Quantum time.Duration
	// SetShares changes the share of existing tasks.
	SetShares map[core.TaskID]int64
	// SetPIDs replaces the PID membership of existing tasks. Joining
	// PIDs are baselined and aligned with the task's eligibility;
	// departing PIDs are resumed and forgotten.
	SetPIDs map[core.TaskID][]int
	// Add registers new tasks (their PIDs start ineligible, as at
	// startup).
	Add []Task
	// Remove deregisters tasks; their PIDs are resumed and forgotten.
	Remove []core.TaskID
}

// ErrBadReconfig reports a reconfiguration batch that failed validation;
// the runner is unchanged.
var ErrBadReconfig = errors.New("osproc: invalid reconfiguration")

// Reconfigure validates and applies a batch of changes. Safe from any
// goroutine; it serializes with the control loop, so changes land at a
// quantum boundary. On a validation error nothing is applied. Runtime
// faults while applying (e.g. an added PID that just exited) follow the
// loop's usual fault handling and are not validation failures.
func (r *Runner) Reconfigure(rc Reconfig) error {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()

	// Validate everything against the current task set first.
	if rc.Quantum != 0 && rc.Quantum < ClockTick {
		return fmt.Errorf("%w: quantum %v is below the /proc accounting tick %v",
			ErrBadReconfig, rc.Quantum, ClockTick)
	}
	removing := make(map[core.TaskID]bool, len(rc.Remove))
	for _, id := range rc.Remove {
		if _, err := r.sched.State(id); err != nil {
			return fmt.Errorf("%w: remove: unknown task %d", ErrBadReconfig, id)
		}
		if removing[id] {
			return fmt.Errorf("%w: remove: task %d listed twice", ErrBadReconfig, id)
		}
		removing[id] = true
	}
	for id, share := range rc.SetShares {
		if share <= 0 {
			return fmt.Errorf("%w: share %d for task %d is not positive", ErrBadReconfig, share, id)
		}
		if _, err := r.sched.State(id); err != nil || removing[id] {
			return fmt.Errorf("%w: set share: unknown task %d", ErrBadReconfig, id)
		}
	}
	adding := make(map[core.TaskID]bool, len(rc.Add))
	for _, t := range rc.Add {
		if t.Share <= 0 {
			return fmt.Errorf("%w: share %d for new task %d is not positive", ErrBadReconfig, t.Share, t.ID)
		}
		if adding[t.ID] {
			return fmt.Errorf("%w: add: task %d listed twice", ErrBadReconfig, t.ID)
		}
		if _, err := r.sched.State(t.ID); err == nil && !removing[t.ID] {
			return fmt.Errorf("%w: add: task %d already exists", ErrBadReconfig, t.ID)
		}
		if len(t.PIDs) == 0 {
			return fmt.Errorf("%w: add: task %d has no pids", ErrBadReconfig, t.ID)
		}
		for _, pid := range t.PIDs {
			if pid <= 0 {
				return fmt.Errorf("%w: add: task %d has invalid pid %d", ErrBadReconfig, t.ID, pid)
			}
		}
		adding[t.ID] = true
	}
	for id, pids := range rc.SetPIDs {
		known := adding[id]
		if _, err := r.sched.State(id); err == nil && !removing[id] {
			known = true
		}
		if !known {
			return fmt.Errorf("%w: set pids: unknown task %d", ErrBadReconfig, id)
		}
		if len(pids) == 0 {
			return fmt.Errorf("%w: set pids: task %d would have no pids (use Remove)", ErrBadReconfig, id)
		}
		for _, pid := range pids {
			if pid <= 0 {
				return fmt.Errorf("%w: set pids: task %d has invalid pid %d", ErrBadReconfig, id, pid)
			}
		}
	}

	// Apply: removes, quantum, shares, adds, memberships — in an order
	// where each step sees the state the validation assumed.
	tick := r.sched.Tick()
	for _, id := range rc.Remove {
		if err := r.sched.Remove(id); err != nil {
			r.errf("reconfig: remove task %d: %v", id, err)
			continue
		}
		for _, pid := range r.targets[id] {
			if r.suspended[pid] {
				if r.signal(pid, false) {
					delete(r.suspended, pid)
				}
			}
		}
		r.forgetTask(id)
		r.health.reconfigs.Add(1)
		r.emit(obs.Event{Kind: obs.KindReconfig, Tick: tick, Task: int64(id)})
	}
	if rc.Quantum != 0 && rc.Quantum != r.baseQ {
		r.baseQ = rc.Quantum
		r.over = overloadState{} // degradation is relative to the old quantum
		if err := r.sched.SetQuantum(rc.Quantum); err != nil {
			r.errf("reconfig: set quantum %v: %v", rc.Quantum, err)
		} else {
			r.health.effQuantumNS.Store(int64(rc.Quantum))
			r.health.degradeLevel.Store(0)
			r.health.reconfigs.Add(1)
			r.emit(obs.Event{Kind: obs.KindReconfig, Tick: tick, Task: -1, Length: rc.Quantum})
		}
	}
	for id, share := range rc.SetShares {
		if err := r.sched.SetShare(id, share); err != nil {
			r.errf("reconfig: set share of task %d: %v", id, err)
			continue
		}
		r.health.reconfigs.Add(1)
		r.emit(obs.Event{Kind: obs.KindReconfig, Tick: tick, Task: int64(id), Share: share})
	}
	for _, t := range rc.Add {
		if err := r.sched.Add(t.ID, t.Share); err != nil {
			r.errf("reconfig: add task %d: %v", t.ID, err)
			continue
		}
		var alive []int
		for _, pid := range t.PIDs {
			if err := r.sys.Stop(pid); err != nil {
				r.health.vanished.Add(1)
				r.errf("reconfig: stop joining pid %d: %v", pid, err)
				continue
			}
			st, err := r.readStat(pid)
			if err != nil || st.State == 'Z' {
				_ = r.sys.Cont(pid)
				r.sys.Forget(pid)
				r.health.vanished.Add(1)
				r.errf("reconfig: baseline joining pid %d (err=%v)", pid, err)
				continue
			}
			r.suspended[pid] = true
			r.known[pid] = pidState{cpu: st.CPU, start: st.Start}
			alive = append(alive, pid)
		}
		r.targets[t.ID] = alive
		if t.PGID != 0 && len(alive) > 0 && r.verifyGroup(t.ID, t.PGID, alive) {
			r.groups[t.ID] = t.PGID
		}
		r.health.reconfigs.Add(1)
		r.emit(obs.Event{Kind: obs.KindReconfig, Tick: tick, Task: int64(t.ID), Share: t.Share, N: len(alive)})
	}
	if len(rc.SetPIDs) > 0 {
		r.refresh(rc.SetPIDs)
		for id, pids := range rc.SetPIDs {
			r.health.reconfigs.Add(1)
			r.emit(obs.Event{Kind: obs.KindReconfig, Tick: tick, Task: int64(id), N: len(pids)})
		}
	}
	// Eligibility and membership moved out from under the amortized loop.
	r.needReconcile = true
	return nil
}
