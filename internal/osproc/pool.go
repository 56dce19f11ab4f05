package osproc

import (
	"sync"
	"sync/atomic"
)

// Concurrent sampling and signal batching. At thousands of controlled
// PIDs the /proc reads and kill(2) calls dominate the quantum; the loop
// fans the raw syscalls out over a bounded worker pool
// (Config.Samplers) while keeping every bookkeeping decision — strike
// accounting, PID drops, the suspended map, error reporting — on the
// loop goroutine in deterministic order. Workers therefore touch only
// the Sys surface and atomic health counters, and outcomes are
// guaranteed to match the sequential path: FaultSys fault schedules are
// per-(pid, call) FIFOs, so per-PID results are interleaving-independent
// (the -race merge-determinism tests hold both paths to this).

// fanOut runs fn(0..n-1) over at most `workers` goroutines and waits for
// all of them. With one worker (or one item) it degrades to a plain loop
// on the calling goroutine.
func fanOut(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// workers returns the effective sampler-pool width: Config.Samplers,
// floored at 1.
func (r *Runner) workers() int {
	if r.cfg.Samplers <= 1 {
		return 1
	}
	return r.cfg.Samplers
}

// statResult is one prefetched stat read (the outcome of readStat,
// retries included).
type statResult struct {
	st  Stat
	err error
}

// prefetch performs this quantum's stat reads concurrently, ahead of
// TickQuantum. The scheduler's DueTasks API predicts exactly the tasks
// stage 1 will measure, so the pool reads their PIDs' stats into
// statCache and read() consumes the cache instead of issuing syscalls.
// Per-PID retry semantics are readStat's own (each worker runs the full
// retry loop for its PID). No-op when sampling sequentially.
func (r *Runner) prefetch() {
	r.statCache = nil
	w := r.workers()
	if w <= 1 {
		return
	}
	pids := r.prefetchPIDs[:0]
	for _, id := range r.sched.DueTasks() {
		pids = append(pids, r.targets[id]...)
	}
	r.prefetchPIDs = pids
	if len(pids) <= 1 {
		return
	}
	if cap(r.prefetchRes) < len(pids) {
		r.prefetchRes = make([]statResult, len(pids))
	}
	results := r.prefetchRes[:len(pids)]
	fanOut(w, len(pids), func(i int) {
		st, err := r.readStat(pids[i])
		results[i] = statResult{st: st, err: err}
	})
	if r.statScratch == nil {
		r.statScratch = make(map[int]statResult, len(pids))
	} else {
		clear(r.statScratch)
	}
	for i, pid := range pids {
		r.statScratch[pid] = results[i]
	}
	r.statCache = r.statScratch
}

// cachedStat returns the prefetched stat for pid, falling back to a
// synchronous readStat when the quantum has no prefetch or the PID was
// not predicted (e.g. it joined a task after the prefetch).
func (r *Runner) cachedStat(pid int) (Stat, error) {
	if res, ok := r.statCache[pid]; ok {
		return res.st, res.err
	}
	return r.readStat(pid)
}
