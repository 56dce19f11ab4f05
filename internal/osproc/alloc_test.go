//go:build !race

// Race instrumentation allocates shadow memory on the hot path, so the
// zero-allocation contract is only checkable in a plain build.

package osproc

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"alps/internal/core"
)

// TestSteadyStateZeroAllocs is the in-tree half of the alloc-regression
// gate (`alps-bench scale` measures the same thing over the full
// sweep): after warmup, one quantum of the indexed loop — scheduler
// tick, FaultSys reads, signal delivery, reconcile — must perform zero
// heap allocations when no observer is attached. The median over the
// window is asserted, not the max: the runtime itself (GC bookkeeping,
// map growth amortization) may land a stray allocation inside any
// single Step, and the median discards those without hiding a loop
// that allocates every quantum.
func TestSteadyStateZeroAllocs(t *testing.T) {
	fs := NewFaultSys()
	fs.Quiet = true
	fs.SharedCPU = true
	const n = 300
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
	const measure = 200
	var before, after runtime.MemStats
	samples := make([]float64, 0, measure)
	for i := 0; i < measure; i++ {
		fs.Advance(q)
		runtime.ReadMemStats(&before)
		r.Step()
		runtime.ReadMemStats(&after)
		samples = append(samples, float64(after.Mallocs-before.Mallocs))
	}
	sort.Float64s(samples)
	if med := samples[len(samples)/2]; med != 0 {
		t.Errorf("steady-state quantum allocates: median %.0f allocs/Step (p90 %.0f) over %d steps, want 0",
			med, samples[len(samples)*9/10], measure)
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
