package core

import (
	"errors"
	"fmt"
	"time"
)

// Checkpoint/restore of the Figure 3 state machine. A Snapshot captures
// everything the algorithm needs to continue a run exactly where it left
// off: the quantum counter, the remaining cycle time t_c, and every
// task's share, allowance, eligibility state, blocked flag, and scheduled
// measurement tick. Restore is all-or-nothing: it fully validates the
// snapshot (including the Σallowance ≡ t_c bookkeeping identity the
// algorithm maintains exactly) before touching the scheduler, so a
// corrupt or semantically impossible snapshot can never leave a scheduler
// half-restored.

// TaskSnapshot is one task's entry in a Snapshot.
type TaskSnapshot struct {
	ID    TaskID `json:"id"`
	Share int64  `json:"share"`
	// Eligible is the task's eligibility state (the partition the driver
	// must re-enact on restore: eligible tasks run, ineligible ones are
	// SIGSTOPped).
	Eligible bool `json:"eligible"`
	// Allowance is the task's remaining allowance for the current cycle,
	// in time units. Negative values are the §2.2 carryover debt the next
	// grant corrects.
	Allowance time.Duration `json:"allowance"`
	// Update is the tick index of the task's next scheduled measurement
	// (the §2.3 lazy-sampling wake tick).
	Update int64 `json:"update"`
	// Blocked records whether the task was observed blocked more recently
	// than consuming (drives the §2.4 every-quantum recheck).
	Blocked bool `json:"blocked"`
	// CycleConsumed and CycleBlocked are the in-flight per-cycle
	// instrumentation accumulators, so a restored run's first OnCycle
	// record is not missing the pre-crash portion of the cycle.
	CycleConsumed time.Duration `json:"cycle_consumed"`
	CycleBlocked  int           `json:"cycle_blocked"`
}

// Snapshot is a complete, restartable image of a Scheduler's state.
type Snapshot struct {
	// Quantum is the quantum Q in force when the snapshot was taken
	// (possibly stretched by an overload guard).
	Quantum time.Duration `json:"quantum"`
	// CycleTime is t_c, the CPU time remaining in the current cycle.
	CycleTime time.Duration `json:"cycle_time"`
	// Count is the quantum counter.
	Count int64 `json:"count"`
	// Cycles is the number of completed cycles.
	Cycles int `json:"cycles"`
	// Tasks lists every registered task in ascending ID order.
	Tasks []TaskSnapshot `json:"tasks"`
}

// ErrBadSnapshot is returned by Restore for a snapshot that fails
// validation. Restore never partially applies such a snapshot.
var ErrBadSnapshot = errors.New("core: invalid snapshot")

// Snapshot captures the scheduler's complete state. The returned value
// shares no memory with the scheduler and is safe to serialize.
func (s *Scheduler) Snapshot() Snapshot {
	snap := Snapshot{
		Quantum:   s.cfg.Quantum,
		CycleTime: s.cycleTime,
		Count:     s.count,
		Cycles:    s.cycles,
		Tasks:     make([]TaskSnapshot, 0, s.order.len()),
	}
	for _, id := range s.order.all() {
		t := s.tasks[id]
		snap.Tasks = append(snap.Tasks, TaskSnapshot{
			ID:            id,
			Share:         t.share,
			Eligible:      t.state == Eligible,
			Allowance:     t.allowance,
			Update:        t.update,
			Blocked:       t.blocked,
			CycleConsumed: t.cycleConsumed,
			CycleBlocked:  t.cycleBlocked,
		})
	}
	return snap
}

// Restore replaces the scheduler's state with the snapshot's, adopting
// its quantum, counters, cycle time, and task set wholesale. Validation
// is complete before any mutation: on error the scheduler is exactly as
// it was. Config callbacks (OnCycle, Observer) are unaffected.
func (s *Scheduler) Restore(snap Snapshot) error {
	if err := snap.validate(); err != nil {
		return err
	}
	tasks := make(map[TaskID]*task, len(snap.Tasks))
	var total int64
	eligible := 0
	for _, ts := range snap.Tasks {
		st := Ineligible
		if ts.Eligible {
			st = Eligible
			eligible++
		}
		// The §2.3 wake tick is a cache of count + ⌈allowance/Q⌉, and the
		// serialized copy can overstate it: a quantum-stretching
		// Reconfigure between save and load (the overload guard re-applies
		// its degrade level on restart) shrinks the recomputed wake, and a
		// hand-built or corrupted snapshot can claim anything. Rebuild the
		// schedule strictly from the restored allowance by clamping to the
		// recomputed wake — for a snapshot from a healthy scheduler the
		// serialized value never exceeds it, so the clamp is a no-op and
		// restored event streams are unchanged.
		update := ts.Update
		if ts.Eligible && ts.Allowance > 0 {
			if w := snap.Count + ceilDiv(ts.Allowance, snap.Quantum); update > w {
				update = w
			}
		}
		tasks[ts.ID] = &task{
			id:        ts.ID,
			share:     ts.Share,
			state:     st,
			allowance: ts.Allowance,
			update:    update,
			blocked:   ts.Blocked,
			// An ineligible task with a positive allowance can only be one
			// captured between its Add and its first stage-3 visit; restore
			// the pending-admission mark so its first transition carries
			// ReasonAdmitted here too (and so the indexed path knows to
			// visit it).
			pendingAdmit:  !ts.Eligible && ts.Allowance > 0,
			cycleConsumed: ts.CycleConsumed,
			cycleBlocked:  ts.CycleBlocked,
		}
		total += ts.Share
	}
	s.cfg.Quantum = snap.Quantum
	s.tasks = tasks
	s.order.reset()
	if s.indexed {
		// Re-anchor the index at the next tick to be serviced; wake ticks
		// at or before the restored count land in its past bucket and
		// surface on the first post-restore drain.
		s.due.reset(snap.Count + 1)
	}
	s.admit = s.admit[:0]
	s.dueBatch = s.dueBatch[:0]
	s.duePrepared = 0
	for _, ts := range snap.Tasks {
		s.order.insert(ts.ID)
		if s.indexed {
			t := tasks[ts.ID]
			if t.state == Eligible {
				s.due.push(dueEntry{wake: t.update, id: t.id})
			}
			if t.pendingAdmit {
				s.admit = append(s.admit, t.id)
			}
		}
	}
	s.totalShares = total
	s.eligible = eligible
	s.cycleTime = snap.CycleTime
	s.count = snap.Count
	s.cycles = snap.Cycles
	s.reserveScratch()
	return nil
}

// validate checks every invariant a snapshot produced by Snapshot()
// satisfies; anything else is corruption (or a bug) and must fail closed.
func (snap Snapshot) validate() error {
	if snap.Quantum <= 0 {
		return fmt.Errorf("%w: quantum %v is not positive", ErrBadSnapshot, snap.Quantum)
	}
	if snap.Count < 0 || snap.Cycles < 0 {
		return fmt.Errorf("%w: negative counters (count=%d cycles=%d)", ErrBadSnapshot, snap.Count, snap.Cycles)
	}
	seen := make(map[TaskID]bool, len(snap.Tasks))
	var sum time.Duration
	for _, ts := range snap.Tasks {
		if ts.Share <= 0 {
			return fmt.Errorf("%w: task %d share %d is not positive", ErrBadSnapshot, ts.ID, ts.Share)
		}
		if seen[ts.ID] {
			return fmt.Errorf("%w: duplicate task %d", ErrBadSnapshot, ts.ID)
		}
		seen[ts.ID] = true
		if ts.CycleBlocked < 0 || ts.CycleConsumed < 0 {
			return fmt.Errorf("%w: task %d has negative cycle accounting", ErrBadSnapshot, ts.ID)
		}
		sum += ts.Allowance
	}
	// The algorithm maintains Σallowance ≡ t_c exactly (every charge and
	// grant hits both sides); a snapshot violating it was not produced by
	// a healthy scheduler.
	if len(snap.Tasks) > 0 && sum != snap.CycleTime {
		return fmt.Errorf("%w: Σallowance %v != cycle time %v", ErrBadSnapshot, sum, snap.CycleTime)
	}
	return nil
}

// ErrBadQuantum is returned by SetQuantum for a non-positive quantum.
var ErrBadQuantum = errors.New("core: quantum must be positive")

// SetQuantum changes the quantum Q in flight. Allowances and the cycle
// time are durations independent of Q, so they are untouched; the change
// affects future grants (share·Q), the §2.4 blocked charge, and §2.3
// postponement arithmetic. This is the paper-sanctioned accuracy/overhead
// knob (Fig. 4 shows accuracy holding to Q = 40 ms): an overload guard
// stretches Q when per-quantum work approaches the §4.2 breakdown
// threshold, and live reconfiguration adjusts it on operator request.
func (s *Scheduler) SetQuantum(q time.Duration) error {
	if q <= 0 {
		return fmt.Errorf("%w: %v", ErrBadQuantum, q)
	}
	if q == s.cfg.Quantum {
		return nil
	}
	s.cfg.Quantum = q
	// Scheduled §2.3 wake ticks were derived under the old quantum. A
	// larger Q means each unmeasured quantum can consume more, so a wake
	// computed under the old Q may now overshoot the allowance — the task
	// would overdraw unmeasured for the difference. Pull every scheduled
	// wake back to the value the new quantum implies (never push it out:
	// postponing beyond the original promise could hold measurements past
	// the point the allowance supports). Both tick paths share this code,
	// so their event streams move together.
	for _, id := range s.order.all() {
		t := s.tasks[id]
		if t.state != Eligible || t.update <= s.count || t.allowance <= 0 {
			continue
		}
		if w := s.count + ceilDiv(t.allowance, q); w < t.update {
			t.update = w
			if s.indexed {
				s.due.push(dueEntry{wake: w, id: id})
			}
		}
	}
	return nil
}
