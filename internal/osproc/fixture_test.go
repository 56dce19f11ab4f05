package osproc

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"alps/internal/core"
)

// withFakeProc points the package at a synthetic procfs tree for the
// duration of a test.
func withFakeProc(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old := procRoot
	procRoot = dir
	t.Cleanup(func() { procRoot = old })
	return dir
}

func writeStat(t *testing.T, root string, pid int, line string) {
	t.Helper()
	pd := filepath.Join(root, itoa(pid))
	if err := os.MkdirAll(pd, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pd, "stat"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestReadStatFixture(t *testing.T) {
	root := withFakeProc(t)
	writeStat(t, root, 77,
		"77 (worker) R 1 77 77 0 -1 0 0 0 0 0 250 50 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0")
	st, err := ReadStat(77)
	if err != nil {
		t.Fatal(err)
	}
	if st.Comm != "worker" || st.State != 'R' {
		t.Errorf("parsed %+v", st)
	}
	if st.CPU != 300*ClockTick {
		t.Errorf("CPU = %v, want %v", st.CPU, 300*ClockTick)
	}
}

func TestReadStatFixtureMissing(t *testing.T) {
	withFakeProc(t)
	if _, err := ReadStat(1234); err == nil {
		t.Error("expected error for missing stat file")
	}
}

// oneShotSys is RealSys with the one-shot ReadStat. The fixtures model
// process death by deleting the stat file, which a held descriptor on a
// regular filesystem cannot see (procfs fails the held read with ESRCH
// instead), so fixture runners must reopen on every read.
type oneShotSys struct{ RealSys }

func (oneShotSys) ReadStat(pid int) (Stat, error) { return ReadStat(pid) }

// newFixtureRunner builds a Runner over the procfs reader (pointed at the
// fixture tree) without spawning or signalling anything.
func newFixtureRunner(targets map[core.TaskID][]int) *Runner {
	return &Runner{
		sys:       oneShotSys{},
		targets:   targets,
		known:     make(map[int]pidState),
		badSig:    make(map[int]int),
		badRead:   make(map[int]int),
		suspended: make(map[int]bool),
		now:       time.Now,
	}
}

// TestRunnerReaderOverFixture drives the Runner's procfs reader against a
// fixture: the first read of an unbaselined PID establishes a baseline
// (charging none of its historical CPU), subsequent CPU growth is
// observed as consumption, and the run state drives blocked detection —
// without any live processes or signals.
func TestRunnerReaderOverFixture(t *testing.T) {
	root := withFakeProc(t)
	stat := func(pid, ticks int, state string) string {
		return itoa(pid) + " (w) " + state + " 1 1 1 0 -1 0 0 0 0 0 " + itoa(ticks) + " 0 0 0 20 0 1 0 7 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
	}
	writeStat(t, root, 101, stat(101, 5, "R"))
	writeStat(t, root, 102, stat(102, 9, "S"))

	r := newFixtureRunner(map[core.TaskID][]int{1: {101, 102}})
	p, ok := r.read(1)
	if !ok {
		t.Fatal("task reported dead")
	}
	if p.Consumed != 0 {
		t.Errorf("first (baselining) read consumed = %v, want 0", p.Consumed)
	}
	if p.Blocked {
		t.Error("group with a running member reported blocked")
	}

	// Both processes go to sleep; one of them accrued two more ticks.
	writeStat(t, root, 101, stat(101, 7, "S"))
	writeStat(t, root, 102, stat(102, 9, "D"))
	p, ok = r.read(1)
	if !ok {
		t.Fatal("task reported dead")
	}
	if p.Consumed != 2*ClockTick {
		t.Errorf("second read consumed = %v, want %v", p.Consumed, 2*ClockTick)
	}
	if !p.Blocked {
		t.Error("all-sleeping group not reported blocked")
	}

	// One process becomes a zombie; the other vanishes: task is dead.
	writeStat(t, root, 101, stat(101, 7, "Z"))
	if err := os.RemoveAll(filepath.Join(root, "102")); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.read(1); ok {
		t.Error("task with only zombie/vanished members should be dead")
	}
	if len(r.known) != 0 {
		t.Errorf("bookkeeping leak: %d stale baseline entries after all PIDs died", len(r.known))
	}
}

// TestReaderDetectsPIDReuse: a PID whose /proc start time changes is an
// unrelated process and must be dropped, not charged.
func TestReaderDetectsPIDReuse(t *testing.T) {
	root := withFakeProc(t)
	stat := func(pid, ticks int, start string) string {
		return itoa(pid) + " (w) R 1 1 1 0 -1 0 0 0 0 0 " + itoa(ticks) + " 0 0 0 20 0 1 0 " + start + " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
	}
	writeStat(t, root, 55, stat(55, 10, "111"))
	r := newFixtureRunner(map[core.TaskID][]int{1: {55}})
	if _, ok := r.read(1); !ok {
		t.Fatal("live task reported dead")
	}
	// Same PID, different start time, huge CPU: a recycled PID.
	writeStat(t, root, 55, stat(55, 100000, "999"))
	if _, ok := r.read(1); ok {
		t.Error("task whose only PID was recycled should be dead")
	}
	if r.Health().ReusedPIDs != 1 {
		t.Errorf("ReusedPIDs = %d, want 1", r.Health().ReusedPIDs)
	}
}
