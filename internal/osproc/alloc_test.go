//go:build !race

// Race instrumentation allocates shadow memory on the hot path, so the
// zero-allocation contract is only checkable in a plain build.

package osproc

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"alps/internal/core"
)

// TestSteadyStateZeroAllocs is the in-tree alloc-regression gate: after
// warmup, the indexed loop — scheduler tick, FaultSys reads, signal
// delivery, reconcile — must perform zero heap allocations when no
// observer is attached. The total over the whole window is asserted, not
// a per-Step median: a loop that allocates once every few hundred quanta
// (a container ratcheting up its capacity) fails here. The sizes are a
// mostly-idle fleet (one task in twenty running) at the scale the §4.2
// argument is about.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, n := range []int{300, 5000} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			fs := NewFaultSys()
			fs.Quiet = true
			fs.SharedCPU = true
			tasks := make([]Task, n)
			for i := range tasks {
				pid := 1000 + i
				state := byte('S')
				if i%20 == 0 {
					state = 'R'
				}
				fs.AddProc(FaultProc{PID: pid, Start: uint64(pid), State: state})
				tasks[i] = Task{ID: core.TaskID(i + 1), Share: int64(i%8) + 1, PIDs: []int{pid}}
			}
			q := 10 * time.Millisecond
			r, err := NewRunner(Config{Quantum: q, Sys: fs}, tasks)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()

			for i := 0; i < 100; i++ {
				fs.Advance(q)
				r.Step()
			}
			// Only Step is bracketed: the fake's Advance is test
			// scaffolding and allocates. Mallocs is process-wide, so the
			// runtime's own allocations are kept out of the window: the
			// collector is off (its workers and post-cycle cleanups
			// allocate), and one P leaves ReadMemStats' restart of the
			// world no idle P to start a new OS thread for, whose
			// runtime structures would land in the bracket (the same
			// reason testing.AllocsPerRun pins GOMAXPROCS to 1).
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			const measure = 1000
			var before, after runtime.MemStats
			var got uint64
			for i := 0; i < measure; i++ {
				fs.Advance(q)
				runtime.ReadMemStats(&before)
				r.Step()
				runtime.ReadMemStats(&after)
				got += after.Mallocs - before.Mallocs
			}
			if got != 0 {
				t.Errorf("steady-state loop allocates: %d heap allocations over %d Steps, want 0", got, measure)
			}
		})
	}
}

// TestRealReadStatAllocs is the real-host half of the alloc gate: the
// FaultSys gate above cannot see /proc reads. After the first read opens
// and holds the stat file, a RealSys read of a live PID may allocate only
// its Comm string.
func TestRealReadStatAllocs(t *testing.T) {
	requireProc(t)
	pid := os.Getpid()
	if _, err := (RealSys{}).ReadStat(pid); err != nil {
		t.Fatal(err)
	}
	defer RealSys{}.Forget(pid)
	if !holdsStat(pid) {
		t.Fatalf("pid %d: stat file not held after the first read", pid)
	}
	var readErr error
	allocs := testing.AllocsPerRun(200, func() {
		_, readErr = RealSys{}.ReadStat(pid)
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	if allocs > 1 {
		t.Errorf("RealSys.ReadStat allocates %.1f times per read, want at most 1 (Comm)", allocs)
	}
}
