package osproc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"alps/internal/core"
)

// Durable runner state. RunnerState is everything a fresh ALPS instance
// needs to pick up a dead instance's workload mid-cycle: the core
// scheduler snapshot (allowances, carryover, eligibility partition,
// quantum counter), the task→PID bindings with each PID's /proc start
// time (the reuse guard — a restarted scheduler must never signal a PID
// the kernel has since handed to an unrelated process), the set of PIDs
// the dead instance had SIGSTOPped, and the operator-configured quantum
// (the scheduler snapshot's quantum may be overload-stretched).

// PIDRecord identifies one controlled process incarnation: the PID plus
// its /proc start time, which together are unique for the machine's
// uptime.
type PIDRecord struct {
	PID   int    `json:"pid"`
	Start uint64 `json:"start"`
}

// TaskRecord is one task's durable binding.
type TaskRecord struct {
	ID    core.TaskID `json:"id"`
	Share int64       `json:"share"`
	PIDs  []PIDRecord `json:"pids"`
	// PGID is the verified process-group ID when the dead instance was
	// using one-syscall group signalling for this task; restore
	// re-verifies it against the adopted survivors before trusting it.
	PGID int `json:"pgid,omitempty"`
}

// RunnerState is the runner's complete durable state.
type RunnerState struct {
	Sched core.Snapshot `json:"sched"`
	Tasks []TaskRecord  `json:"tasks"`
	// Suspended lists the PIDs the runner had SIGSTOPped when the state
	// was captured (diagnostic; restore re-derives the partition from
	// task eligibility).
	Suspended []int `json:"suspended,omitempty"`
	// BaseQuantum is the operator-configured quantum; Sched.Quantum may
	// be larger if the overload guard had stretched it.
	BaseQuantum time.Duration `json:"base_quantum"`
	// DegradeLevel is the overload-guard level in force at capture.
	DegradeLevel int `json:"degrade_level,omitempty"`
}

// ErrBadState reports a RunnerState that fails validation beyond what
// core snapshot validation covers.
var ErrBadState = errors.New("osproc: invalid runner state")

// State captures the runner's durable state. Safe from any goroutine.
func (r *Runner) State() RunnerState {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	return r.stateLocked()
}

func (r *Runner) stateLocked() RunnerState {
	st := RunnerState{
		Sched:        r.sched.Snapshot(),
		BaseQuantum:  r.baseQ,
		DegradeLevel: r.over.level,
	}
	for _, snap := range st.Sched.Tasks {
		rec := TaskRecord{ID: snap.ID, Share: snap.Share, PGID: r.groups[snap.ID]}
		for _, pid := range r.targets[snap.ID] {
			rec.PIDs = append(rec.PIDs, PIDRecord{PID: pid, Start: r.known[pid].start})
		}
		st.Tasks = append(st.Tasks, rec)
	}
	for pid := range r.suspended {
		st.Suspended = append(st.Suspended, pid)
	}
	sort.Ints(st.Suspended)
	return st
}

// NewRunnerFromState rebuilds a runner from a dead instance's durable
// state, re-adopting the workload so shares resume mid-cycle instead of
// resetting. cfg's workload-defining fields (Quantum) are taken from the
// state, not cfg; everything else (Sys, Observer, Metrics, callbacks,
// Overload) comes from cfg.
//
// Re-adoption rules, per PID:
//   - gone or zombie: dropped (counted in Health as vanished);
//   - /proc start time differs from the record: the kernel recycled the
//     PID for an unrelated process — dropped without ever being
//     signalled (counted as reused);
//   - live and verified: CPU accounting is re-baselined at the *current*
//     counter (the PR 1 join rule — CPU consumed while no scheduler was
//     running is nobody's fault and must not be billed as one quantum's
//     consumption), and its run state is aligned with its task's restored
//     eligibility: eligible PIDs are SIGCONTed (freeing anything the dead
//     instance left SIGSTOPped), ineligible PIDs are SIGSTOPped.
//
// Tasks whose every PID was dropped are removed from the restored
// scheduler before the first tick. If no PID at all survives,
// NewRunnerFromState fails with ErrNoLiveProcess (after resuming
// anything it had stopped).
func NewRunnerFromState(cfg Config, st RunnerState) (*Runner, error) {
	if st.BaseQuantum < ClockTick {
		return nil, fmt.Errorf("%w: base quantum %v is below the /proc accounting tick %v",
			ErrBadState, st.BaseQuantum, ClockTick)
	}
	if st.DegradeLevel < 0 {
		return nil, fmt.Errorf("%w: negative degrade level %d", ErrBadState, st.DegradeLevel)
	}
	shares := make(map[core.TaskID]int64, len(st.Sched.Tasks))
	for _, t := range st.Sched.Tasks {
		shares[t.ID] = t.Share
	}
	for _, rec := range st.Tasks {
		if sh, ok := shares[rec.ID]; !ok || sh != rec.Share {
			return nil, fmt.Errorf("%w: task record %d disagrees with scheduler snapshot", ErrBadState, rec.ID)
		}
	}

	cfg.Quantum = st.BaseQuantum
	r := newRunnerSkeleton(cfg)
	if err := r.sched.Restore(st.Sched); err != nil {
		return nil, err
	}
	r.baseQ = st.BaseQuantum
	// Re-apply the captured degradation level only if the guard is still
	// enabled; otherwise run at the configured quantum.
	level := 0
	if cfg.Overload.Enable {
		level = st.DegradeLevel
		for level > 0 && r.baseQ<<level > r.cfg.Overload.MaxQuantum {
			level--
		}
	}
	r.over.level = level
	effQ := r.baseQ << level
	if err := r.sched.SetQuantum(effQ); err != nil {
		return nil, err
	}
	r.health.effQuantumNS.Store(int64(effQ))
	r.health.degradeLevel.Store(int64(level))

	eligible := make(map[core.TaskID]bool, len(st.Sched.Tasks))
	for _, t := range st.Sched.Tasks {
		eligible[t.ID] = t.Eligible
	}
	live := 0
	for _, rec := range st.Tasks {
		var adopted []int
		for _, pr := range rec.PIDs {
			pst, err := r.readStat(pr.PID)
			if err != nil || pst.State == 'Z' {
				r.sys.Forget(pr.PID)
				r.health.vanished.Add(1)
				r.errf("adopt pid %d: gone (err=%v)", pr.PID, err)
				continue
			}
			if pst.Start != pr.Start {
				r.sys.Forget(pr.PID)
				r.health.reused.Add(1)
				r.errf("adopt pid %d: recycled by the kernel (start %d -> %d); dropping without signalling",
					pr.PID, pr.Start, pst.Start)
				continue
			}
			if eligible[rec.ID] {
				// The dead instance may have left it SIGSTOPped; a
				// SIGCONT to a running process is harmless.
				if !r.signal(pr.PID, false) {
					r.sys.Forget(pr.PID)
					continue
				}
			} else {
				if !r.signal(pr.PID, true) {
					r.sys.Forget(pr.PID)
					continue
				}
				r.suspended[pr.PID] = true
			}
			// Re-baseline at the current counter: CPU consumed during
			// the scheduler outage is never charged.
			cur, err := r.readStat(pr.PID)
			if err != nil {
				cur = pst
			}
			r.known[pr.PID] = pidState{cpu: cur.CPU, start: pr.Start}
			adopted = append(adopted, pr.PID)
			live++
		}
		r.targets[rec.ID] = adopted
		if len(adopted) == 0 {
			_ = r.sched.Remove(rec.ID)
			delete(r.targets, rec.ID)
		} else if rec.PGID != 0 && r.verifyGroup(rec.ID, rec.PGID, adopted) {
			r.groups[rec.ID] = rec.PGID
		}
	}
	if live == 0 {
		r.Release()
		return nil, ErrNoLiveProcess
	}
	// The dead instance's signals may not all have landed; sweep on the
	// first quantum.
	r.needReconcile = true
	return r, nil
}
