package osproc

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"alps/internal/core"
)

// spawnSleepers starts n `sleep` children and registers their cleanup.
func spawnSleepers(t *testing.T, n int) []*exec.Cmd {
	t.Helper()
	cmds := make([]*exec.Cmd, n)
	for i := range cmds {
		cmd := exec.Command("sleep", "60")
		if err := cmd.Start(); err != nil {
			t.Skipf("cannot spawn sleep: %v", err)
		}
		cmds[i] = cmd
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
	}
	return cmds
}

// resetStatFiles closes every held stat file, so a test sees only the
// entries it creates.
func resetStatFiles(t *testing.T) {
	t.Helper()
	statFiles.Lock()
	defer statFiles.Unlock()
	for pid, f := range statFiles.m {
		f.Close()
		delete(statFiles.m, pid)
	}
}

func holdsStat(pid int) bool {
	statFiles.Lock()
	defer statFiles.Unlock()
	_, ok := statFiles.m[pid]
	return ok
}

// TestHeldStatDeathPath runs the runner over RealSys and real children:
// each child's stat file is held after NewRunner; a child killed and
// reaped mid-run fails its held read with ESRCH, so the next Step drops
// it and the table closes its file; Release closes the rest.
func TestHeldStatDeathPath(t *testing.T) {
	requireProc(t)
	resetStatFiles(t)
	cmds := spawnSleepers(t, 3)
	tasks := make([]Task, len(cmds))
	for i, c := range cmds {
		tasks[i] = Task{ID: core.TaskID(i + 1), Share: 1, PIDs: []int{c.Process.Pid}}
	}
	r, err := NewRunner(Config{Quantum: 20 * time.Millisecond, DisableLazySampling: true}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	for _, c := range cmds {
		if !holdsStat(c.Process.Pid) {
			t.Fatalf("pid %d: stat file not held after NewRunner", c.Process.Pid)
		}
	}
	// Stage 1 measures every eligible task when lazy sampling is off,
	// so kill the child of a task that is eligible going into the Step.
	victim := -1
	for i := 0; i < 50 && victim < 0; i++ {
		r.Step()
		for j := range tasks {
			if st, err := r.sched.State(tasks[j].ID); err == nil && st == core.Eligible {
				victim = j
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no task became eligible")
	}
	pid := cmds[victim].Process.Pid
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmds[victim].Wait() // reap: the held file now reads ESRCH
	before := r.Health().VanishedPIDs
	r.Step()
	if got := r.Health().VanishedPIDs - before; got != 1 {
		t.Errorf("VanishedPIDs grew by %d in the Step after the kill, want 1", got)
	}
	if _, ok := r.known[pid]; ok {
		t.Errorf("pid %d still has a baseline after its death", pid)
	}
	if holdsStat(pid) {
		t.Errorf("pid %d: stat file still held after the process was reaped", pid)
	}
	r.Release()
	for _, c := range cmds {
		if holdsStat(c.Process.Pid) {
			t.Errorf("pid %d: stat file still held after Release", c.Process.Pid)
		}
	}
}

// TestHeldStatForgetRace hammers RealSys.ReadStat from a pool of readers
// while another goroutine keeps closing the same held files. A read that
// loses the race must fail with a retryable or gone error, never read
// another file; a read that wins must return the requested process.
func TestHeldStatForgetRace(t *testing.T) {
	requireProc(t)
	cmds := spawnSleepers(t, 4)
	pids := make([]int, len(cmds))
	for i, c := range cmds {
		pids[i] = c.Process.Pid
	}
	defer func() {
		for _, pid := range pids {
			RealSys{}.Forget(pid)
		}
	}()
	const rounds = 400
	var sys RealSys
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.Forget(pids[i%len(pids)])
		}
	}()
	var readers sync.WaitGroup
	width := max(runtime.GOMAXPROCS(0), 2)
	readers.Add(width)
	for w := 0; w < width; w++ {
		go func(w int) {
			defer readers.Done()
			for i := 0; i < rounds; i++ {
				pid := pids[(i+w)%len(pids)]
				st, err := sys.ReadStat(pid)
				if err != nil {
					if c := classify(err); c != errTransient && c != errGone {
						t.Errorf("read pid %d: %v classifies as %d", pid, err, c)
					}
					continue
				}
				if st.PID != pid || st.Comm != "sleep" {
					t.Errorf("read pid %d returned pid %d comm %q", pid, st.PID, st.Comm)
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestReadStatPastCapHoldsNoFile: once the table is full, reads still
// succeed, through a one-shot open, and hold no new file.
func TestReadStatPastCapHoldsNoFile(t *testing.T) {
	requireProc(t)
	resetStatFiles(t)
	old := statFileCap
	statFileCap = 1
	t.Cleanup(func() {
		statFileCap = old
		resetStatFiles(t)
	})
	self, parent := os.Getpid(), os.Getppid()
	if _, err := (RealSys{}).ReadStat(self); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st, err := RealSys{}.ReadStat(parent)
		if err != nil {
			t.Fatalf("read past the cap: %v", err)
		}
		if st.PID != parent {
			t.Fatalf("read past the cap returned pid %d, want %d", st.PID, parent)
		}
	}
	if !holdsStat(self) || holdsStat(parent) || len(statFiles.m) != 1 {
		t.Errorf("table past the cap: self held %v, parent held %v, %d entries; want only self",
			holdsStat(self), holdsStat(parent), len(statFiles.m))
	}
}

// TestReadStatOutOfDescriptors: when the process has no descriptor left,
// ReadStat closes a held file to make room and reads one-shot, so running
// out of descriptors never leaves a PID unread.
func TestReadStatOutOfDescriptors(t *testing.T) {
	requireProc(t)
	resetStatFiles(t)
	t.Cleanup(func() { resetStatFiles(t) })
	self, parent := os.Getpid(), os.Getppid()
	if _, err := (RealSys{}).ReadStat(self); err != nil {
		t.Fatal(err)
	}
	// Every descriptor below the lowest free one is in use, so a soft
	// limit at that number makes the next open fail EMFILE.
	probe, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	lowest := probe.Fd()
	probe.Close()
	var orig syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &orig); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := orig
	lim.Cur = uint64(lowest)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	restored := false
	restore := func() {
		if !restored {
			restored = true
			if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &orig); err != nil {
				t.Errorf("restore RLIMIT_NOFILE: %v", err)
			}
		}
	}
	defer restore()
	if f, err := os.Open(os.DevNull); !errors.Is(err, syscall.EMFILE) {
		if err == nil {
			f.Close()
		}
		restore()
		t.Skipf("lowering the limit did not exhaust descriptors (err=%v)", err)
	}
	st, err := RealSys{}.ReadStat(parent)
	restore()
	if err != nil {
		t.Fatalf("read with no free descriptor: %v", err)
	}
	if st.PID != parent {
		t.Errorf("read returned pid %d, want %d", st.PID, parent)
	}
	if holdsStat(self) || holdsStat(parent) {
		t.Errorf("held after the descriptor-starved read: self %v parent %v; want the held file given back and none taken",
			holdsStat(self), holdsStat(parent))
	}
}
