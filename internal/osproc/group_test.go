package osproc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// Group-signaling tests: a §5 resource principal whose members share a
// process group must cost one kill(-pgid) syscall per eligibility flip,
// and every partial-delivery corner (a member exiting mid-kill, a member
// the kernel silently skips, a group call failing outright) must settle
// without double-charged strikes or survivors left SIGSTOPped.

// addGroup installs members PIDs leader..leader+n-1 in process group
// `leader` and returns the Task claiming it.
func addGroup(fs *FaultSys, id core.TaskID, share int64, leader, n int) Task {
	var pids []int
	for i := 0; i < n; i++ {
		fs.AddProc(FaultProc{PID: leader + i, PGID: leader, Start: uint64(leader + i)})
		pids = append(pids, leader+i)
	}
	return Task{ID: id, Share: share, PIDs: pids, PGID: leader}
}

// sigLogLines counts per-PID and group signal log lines in fs.Log[from:].
func sigLogLines(fs *FaultSys, from int) (perPID, group int) {
	for _, line := range fs.Log[from:] {
		switch {
		case strings.HasPrefix(line, "stopg ") || strings.HasPrefix(line, "contg "):
			group++
		case strings.HasPrefix(line, "stop ") || strings.HasPrefix(line, "cont "):
			perPID++
		}
	}
	return perPID, group
}

// TestGroupSignalingOneSyscallPerFlip: once the workload is adopted,
// every eligibility flip of a group-owning principal is exactly one
// signal syscall, independent of member count, and no per-PID stop/cont
// ever appears on the fast path. Shapes: three 20-member principals at
// uneven shares, and 50 principals × 100 members (5000 processes).
func TestGroupSignalingOneSyscallPerFlip(t *testing.T) {
	for _, shape := range []struct {
		principals, members int
		share               func(i int) int64
	}{
		{3, 20, func(i int) int64 { return []int64{1, 2, 5}[i] }},
		{50, 100, func(i int) int64 { return int64(i%8) + 1 }},
	} {
		t.Run(fmt.Sprintf("%dx%d", shape.principals, shape.members), func(t *testing.T) {
			fs := NewFaultSys()
			fs.SharedCPU = true
			log := obs.NewEventLog(0)
			var tasks []Task
			for i := 0; i < shape.principals; i++ {
				tasks = append(tasks, addGroup(fs, core.TaskID(i+1), shape.share(i), 1000*(i+1), shape.members))
			}
			r := newFaultRunner(t, fs, Config{Observer: log}, tasks)
			base := fs.SignalSyscalls()
			logMark := len(fs.Log)
			for i := 0; i < 80; i++ {
				stepQuantum(fs, r)
			}
			flips := len(core.TransitionsOf(log.Events()))
			delta := fs.SignalSyscalls() - base
			if flips == 0 {
				t.Fatal("workload never flipped eligibility; test exercises nothing")
			}
			if delta != int64(flips) {
				t.Errorf("signal syscalls = %d for %d eligibility flips, want exactly 1 per flip", delta, flips)
			}
			perPID, group := sigLogLines(fs, logMark)
			if perPID != 0 {
				t.Errorf("%d per-PID signals on the steady-state path, want 0 (group kills only)", perPID)
			}
			if group == 0 {
				t.Error("no group kills logged despite verified process groups")
			}
			r.Release()
			if got := fs.StoppedPIDs(); len(got) != 0 {
				t.Errorf("PIDs left frozen after release: %v", got)
			}
		})
	}
}

// TestGroupPartialESRCHLeavesNoSurvivorFrozen scripts the satellite's
// partial-delivery hazard: kill(-pgid, SIGCONT) succeeds (POSIX: at
// least one member signalled) while one member misses the signal. The
// runner must detect the frozen survivor at its next measurement and
// re-align it — charging no strikes for a delivery the group call never
// reported failed.
func TestGroupPartialESRCHLeavesNoSurvivorFrozen(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 2, 500, 3), addGroup(fs, 2, 1, 600, 2)}
	r := newFaultRunner(t, fs, Config{}, tasks)
	// The first group resume silently skips member 501 (exited-mid-kill
	// schedule); the fake keeps the process so it stays SIGSTOPped —
	// exactly what a kernel race leaves behind.
	fs.Inject(501, CallCont, FaultESRCH)
	for i := 0; i < 12; i++ {
		stepQuantum(fs, r)
	}
	if st, _ := r.sched.State(1); st == core.Eligible && fs.IsStopped(501) {
		t.Error("member 501 left SIGSTOPped while its task is eligible")
	}
	// No strikes: the group call succeeded, and the re-aligning SIGCONT
	// succeeded too. A strike here would double-charge the member for a
	// delivery that was never individually refused.
	if h := r.Health(); h.SignalFailures != 0 {
		t.Errorf("SignalFailures = %d, want 0 (partial ESRCH is not a failure)", h.SignalFailures)
	}
	if len(r.badSig) != 0 {
		t.Errorf("badSig strikes outstanding: %v", r.badSig)
	}
	r.Release()
}

// TestGroupEPERMFallsBackPerPIDStrikesOnce: when the whole group call
// fails EPERM (every member refuses), delivery falls back per PID and
// each member is struck exactly once per enact — never once for the
// group failure plus once for the member failure.
func TestGroupEPERMFallsBackPerPIDStrikesOnce(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 1, 700, 2), addGroup(fs, 2, 3, 800, 2)}
	log := obs.NewEventLog(0)
	r := newFaultRunner(t, fs, Config{Observer: log}, tasks)
	// Two EPERMs per member of group 700: the group sweep consumes one
	// each (no member signalable -> aggregate EPERM), the per-PID
	// fallback consumes the second (individual strike). Later deliveries
	// are clean.
	fs.Inject(700, CallStop, FaultEPERM, FaultEPERM)
	fs.Inject(701, CallStop, FaultEPERM, FaultEPERM)
	suspends := 0
	for i := 0; i < 40 && suspends == 0; i++ {
		stepQuantum(fs, r)
		for _, e := range core.TransitionsOf(log.Events()) {
			if e.Task == 1 && !e.Eligible {
				suspends++
			}
		}
	}
	if suspends == 0 {
		t.Fatal("task 1 never flipped ineligible; scenario not exercised")
	}
	if h := r.Health(); h.SignalFailures != 2 {
		t.Errorf("SignalFailures = %d, want exactly 2 (one strike per member, no double charge)", h.SignalFailures)
	}
	// The strike machinery retries on the reconcile sweep; with the fault
	// schedules drained the members end up correctly stopped.
	for i := 0; i < 4; i++ {
		stepQuantum(fs, r)
	}
	if st, _ := r.sched.State(1); st == core.Ineligible {
		for _, pid := range []int{700, 701} {
			if !fs.IsStopped(pid) {
				t.Errorf("member %d free-riding: not stopped while task ineligible", pid)
			}
		}
	}
	r.Release()
}

// TestGroupTransientRetriesWithinQuantum: an EINTR against the group
// syscall itself (negative-pid schedule) is retried with backoff inside
// the same delivery, like its per-PID counterpart.
func TestGroupTransientRetriesWithinQuantum(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 1, 900, 3)}
	r := newFaultRunner(t, fs, Config{}, tasks)
	fs.Inject(-900, CallCont, FaultEINTR, FaultEINTR)
	for i := 0; i < 6; i++ {
		stepQuantum(fs, r)
	}
	h := r.Health()
	if h.SignalRetries < 2 {
		t.Errorf("SignalRetries = %d, want >= 2 (injected group EINTRs)", h.SignalRetries)
	}
	if h.SignalFailures != 0 {
		t.Errorf("SignalFailures = %d, want 0 (transients recovered in-quantum)", h.SignalFailures)
	}
	if st, _ := r.sched.State(1); st == core.Eligible {
		for pid := 900; pid < 903; pid++ {
			if fs.IsStopped(pid) {
				t.Errorf("member %d still stopped after retried group resume", pid)
			}
		}
	}
	r.Release()
}

// TestGroupClaimVerification: a claimed PGID that does not hold (one
// member sits outside the group — the attach-mode/mixed-group case)
// must demote the task to per-PID delivery at adoption, not stop
// unrelated processes or miss members at the first flip.
func TestGroupClaimVerification(t *testing.T) {
	fs := NewFaultSys()
	for _, pid := range []int{50, 51} {
		fs.AddProc(FaultProc{PID: pid, PGID: 50, Start: uint64(pid)})
	}
	fs.AddProc(FaultProc{PID: 52, Start: 52}) // own group: claim is wrong
	var errs []error
	r := newFaultRunner(t, fs, Config{
		OnError: func(err error) { errs = append(errs, err) },
	}, []Task{{ID: 1, Share: 1, PIDs: []int{50, 51, 52}, PGID: 50}})
	if _, ok := r.groups[1]; ok {
		t.Fatal("mixed membership accepted for group signalling")
	}
	if len(errs) == 0 {
		t.Error("demotion to per-PID delivery was silent")
	}
	logMark := len(fs.Log)
	for i := 0; i < 20; i++ {
		stepQuantum(fs, r)
	}
	if _, group := sigLogLines(fs, logMark); group != 0 {
		t.Errorf("%d group kills issued for an unverified claim", group)
	}
	r.Release()
}

// TestGroupModeSurvivesStateRoundTrip: checkpoint/restore re-verifies
// and preserves group signalling; a membership whose pgids changed
// during the outage is demoted instead of trusted.
func TestGroupModeSurvivesStateRoundTrip(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 2, 300, 4)}
	r := newFaultRunner(t, fs, Config{}, tasks)
	for i := 0; i < 10; i++ {
		stepQuantum(fs, r)
	}
	st := r.State()
	if st.Tasks[0].PGID != 300 {
		t.Fatalf("state did not record verified PGID: %+v", st.Tasks[0])
	}
	r.Release()

	r2, err := NewRunnerFromState(Config{Sys: fs, Clock: fs.Now}, st)
	if err != nil {
		t.Fatal(err)
	}
	if pgid, ok := r2.groups[1]; !ok || pgid != 300 {
		t.Errorf("restored runner lost group mode: groups=%v", r2.groups)
	}
	r2.Release()

	// Same state, but a member left the group during the outage.
	fs.Proc(302).PGID = 1 // white-box: re-home one member
	r3, err := NewRunnerFromState(Config{Sys: fs, Clock: fs.Now}, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r3.groups[1]; ok {
		t.Error("restore trusted a stale PGID claim after membership drifted")
	}
	r3.Release()
}

// TestGroupDemotionOnRefreshJoin: a refresh that joins a PID from
// outside the verified group reverts the task to per-PID delivery.
func TestGroupDemotionOnRefreshJoin(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 1, 400, 2)}
	r := newFaultRunner(t, fs, Config{}, tasks)
	fs.AddProc(FaultProc{PID: 77, Start: 77}) // joiner in its own group
	r.refresh(map[core.TaskID][]int{1: {400, 401, 77}})
	if _, ok := r.groups[1]; ok {
		t.Error("group mode survived a join from outside the process group")
	}
	r.Release()
}

// TestGroupSignalsRaceReconfigure extends the -race suite to the new
// fast path: group deliveries fanned out over pool workers while
// Reconfigure rewrites shares, memberships, and the quantum, and other
// goroutines hammer Health and State. Run under -race (make race / CI);
// the invariant checked here is the release one — no PID is left frozen
// — plus the absence of data races.
func TestGroupSignalsRaceReconfigure(t *testing.T) {
	fs := NewFaultSys()
	fs.Quiet = true
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, addGroup(fs, core.TaskID(i+1), int64(i+1), 1000*(i+1), 8))
	}
	r := newFaultRunner(t, fs, Config{Samplers: 8}, tasks)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n++
			_ = r.Reconfigure(Reconfig{SetShares: map[core.TaskID]int64{
				1: 1 + n%7,
				3: 2 + n%5,
			}})
			if n%10 == 0 {
				// Quantum churn exercises SetQuantum racing the signal path.
				_ = r.Reconfigure(Reconfig{Quantum: fq * time.Duration(1+n%3)})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Health().String()
			_ = r.State()
		}
	}()

	for i := 0; i < 300; i++ {
		stepQuantum(fs, r)
	}
	close(stop)
	wg.Wait()
	if r.sched.Len() == 0 {
		t.Error("hammer lost the whole workload")
	}
	r.Release()
	if got := fs.StoppedPIDs(); len(got) != 0 {
		t.Errorf("PIDs left frozen after release: %v", got)
	}
}
