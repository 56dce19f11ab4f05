package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"alps/internal/obs"
)

// sortEntries orders entries by (wake, id) for set comparison — drain
// order is deliberately unspecified.
func sortEntries(es []dueEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].wake != es[j].wake {
			return es[i].wake < es[j].wake
		}
		return es[i].id < es[j].id
	})
}

// TestWheelSlotRollover: entries placed across level-0 block boundaries
// (tick 64, 128) and a level-1 boundary (4096) must each surface exactly
// at their wake tick as the cursor advances one tick at a time — i.e.
// the cascade re-homes them into finer levels before their slot comes
// around again.
func TestWheelSlotRollover(t *testing.T) {
	w := newDueWheel()
	w.reset(1)
	wakes := []int64{1, 2, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097}
	for i, wk := range wakes {
		w.push(dueEntry{wake: wk, id: TaskID(i)})
	}
	var got []dueEntry
	var buf []dueEntry
	for tick := int64(1); tick <= 5000; tick++ {
		buf = w.drain(tick)
		for _, e := range buf {
			if e.wake != tick {
				t.Fatalf("entry with wake %d drained at tick %d", e.wake, tick)
			}
		}
		got = append(got, buf...)
	}
	if len(got) != len(wakes) {
		t.Fatalf("drained %d entries, pushed %d", len(got), len(wakes))
	}
	if w.len() != 0 {
		t.Fatalf("wheel reports %d entries after full drain", w.len())
	}
}

// TestWheelFarFutureOverflow: a wake beyond the wheel horizon lands in
// the overflow list, is re-homed once the cursor brings it within the
// horizon, and is emitted exactly at its wake — never early.
func TestWheelFarFutureOverflow(t *testing.T) {
	w := newDueWheel()
	w.reset(0)
	e := dueEntry{wake: wheelSpan(wheelLevels) + 123, id: 7}
	w.push(e)
	if w.over == 0 {
		t.Fatal("far-future entry not in overflow")
	}
	if got := w.drain(e.wake - 1); len(got) != 0 {
		t.Fatalf("emitted before wake: %+v", got)
	}
	if w.over != 0 {
		t.Fatalf("entry not re-homed out of overflow after cursor advanced within horizon")
	}
	got := w.drain(e.wake)
	if !reflect.DeepEqual(got, []dueEntry{e}) {
		t.Fatalf("drain(%d) = %+v, want exactly the overflow entry", e.wake, got)
	}
	if w.len() != 0 {
		t.Fatalf("wheel reports %d entries after drain", w.len())
	}
}

// TestWheelPastBucket: pushes with already-elapsed wake ticks (re-armed
// prefetch batches, restores, compaction re-anchoring) surface on the
// very next drain.
func TestWheelPastBucket(t *testing.T) {
	w := newDueWheel()
	w.reset(0)
	w.drain(100) // cursor now at 101
	es := []dueEntry{{wake: 5, id: 1}, {wake: 100, id: 2}}
	for _, e := range es {
		w.push(e)
	}
	got := w.drain(101)
	sortEntries(got)
	if !reflect.DeepEqual(got, es) {
		t.Fatalf("past-bucket drain = %+v, want %+v", got, es)
	}
}

// TestWheelReset: reset empties every level, the past bucket, and the
// overflow list, and re-anchors the cursor.
func TestWheelReset(t *testing.T) {
	w := newDueWheel()
	w.reset(0)
	w.drain(50)
	for _, wk := range []int64{3, 60, 70, 5000, wheelSpan(wheelLevels) + 9} {
		w.push(dueEntry{wake: wk, id: TaskID(wk)})
	}
	w.reset(1000)
	if w.len() != 0 {
		t.Fatalf("len %d after reset", w.len())
	}
	if got := w.drain(1 << 20); len(got) != 0 {
		t.Fatalf("drain after reset emitted %+v", got)
	}
	w.push(dueEntry{wake: 900, id: 1}) // before the new anchor: past bucket
	w.push(dueEntry{wake: 1 << 21, id: 2})
	if got := w.drain(1 << 21); len(got) != 2 {
		t.Fatalf("post-reset pushes: drained %d of 2", len(got))
	}
}

// TestWheelMemoryBoundedByEntries: the wheel's storage tracks the most
// entries it ever held at once, not the history of which slots they
// passed through. A steady population of 100 entries, re-pushed at
// random distances as each drains, sweeps every slot of every level
// over 20000 ticks; the arena must never exceed the population.
func TestWheelMemoryBoundedByEntries(t *testing.T) {
	const live = 100
	rng := rand.New(rand.NewSource(1))
	w := newDueWheel()
	w.reset(1)
	for i := 0; i < live; i++ {
		w.push(dueEntry{wake: 1 + int64(rng.Intn(int(wheelSpan(2)))), id: TaskID(i)})
	}
	for tick := int64(1); tick <= 20000; tick++ {
		for _, e := range w.drain(tick) {
			e.wake = tick + 1 + int64(rng.Intn(int(wheelSpan(2))))
			w.push(e)
		}
		if w.len() != live {
			t.Fatalf("tick %d: wheel holds %d entries, want %d", tick, w.len(), live)
		}
	}
	if got := len(w.nodes) - 1; got > live {
		t.Errorf("arena grew to %d nodes for at most %d entries held", got, live)
	}
}

// TestDueIndexTieOrdering: tasks tied on the same wake tick must reach
// the measurement loop (and therefore the event stream) in ascending
// TaskID order regardless of the order entries entered the due index.
func TestDueIndexTieOrdering(t *testing.T) {
	log := obs.NewEventLog(0)
	s := New(Config{Quantum: q, Observer: log})
	// Insertion order deliberately shuffled; identical shares give
	// every task the same wake tick at every step.
	for _, id := range []TaskID{30, 10, 50, 20, 40} {
		if err := s.Add(id, 4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		due := s.DueTasks()
		for j := 1; j < len(due); j++ {
			if due[j-1] >= due[j] {
				t.Fatalf("DueTasks not strictly ascending: %v", due)
			}
		}
		s.TickQuantum(func(TaskID) (Progress, bool) {
			return Progress{Consumed: q}, true
		})
	}
	var lastTick int64 = -1
	var lastTask int64
	for _, e := range log.Events() {
		if e.Kind != obs.KindMeasure {
			continue
		}
		if e.Tick == lastTick && e.Task <= lastTask {
			t.Fatalf("measures out of ID order at tick %d: %d after %d", e.Tick, e.Task, lastTask)
		}
		lastTick, lastTask = e.Tick, e.Task
	}
}

// TestDueIndexCompactionBoundsChurn is the regression test for lazy
// stale-entry accumulation: a membership-churn storm (every round
// removes far-postponed tasks and admits replacements) strands stale
// entries whose wake ticks are hundreds of quanta out. Without the
// compaction bound the index grows without limit — here to ~2000
// entries for ~50 live tasks; with it, it must stay O(live).
func TestDueIndexCompactionBoundsChurn(t *testing.T) {
	s := New(Config{Quantum: q})
	next := TaskID(0)
	for i := 0; i < 50; i++ {
		if err := s.Add(next, 1000); err != nil { // wake ≈ 1000 ticks out
			t.Fatal(err)
		}
		next++
	}
	idle := func(TaskID) (Progress, bool) { return Progress{}, true }
	s.TickQuantum(idle) // admit everyone; schedule far wakes
	for round := 0; round < 400; round++ {
		ids := s.Tasks()
		for i := 0; i < 5 && i < len(ids); i++ {
			if err := s.Remove(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := s.Add(next, 1000); err != nil {
				t.Fatal(err)
			}
			next++
		}
		s.TickQuantum(idle)
		// Directly after a tick the index holds at most the live
		// entries surviving compaction (2·eligible+slack at prepare
		// time) plus this tick's stage-3 pushes and admissions.
		if bound := 3*s.eligible + 2*compactSlack; s.due.len() > bound {
			t.Fatalf("round %d: due index holds %d entries for %d eligible tasks (bound %d)",
				round, s.due.len(), s.eligible, bound)
		}
	}
}

// FuzzWheel cross-checks the timer wheel against the reference oracle —
// a flat slice swept in full on every drain — over random interleavings
// of pushes (past, near, mid-level, and beyond-horizon wakes) and
// monotonically advancing drains.
func FuzzWheel(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		w := newDueWheel()
		start := int64(rng.Intn(10000))
		w.reset(start)
		tick := start
		var model []dueEntry
		var buf, want []dueEntry
		for step := 0; step < 250; step++ {
			if rng.Intn(2) == 0 {
				var wake int64
				switch rng.Intn(5) {
				case 0:
					wake = tick - int64(rng.Intn(200)) // past bucket
				case 1:
					wake = tick + int64(rng.Intn(wheelSlots)) // level 0
				case 2:
					wake = tick + int64(rng.Intn(int(wheelSpan(2)))) // levels 0-1
				case 3:
					wake = tick + int64(rng.Intn(int(wheelSpan(3)))) // level 2
				default:
					wake = tick + wheelSpan(wheelLevels) + int64(rng.Intn(1<<20)) // overflow
				}
				e := dueEntry{wake: wake, id: TaskID(step)}
				w.push(e)
				model = append(model, e)
			} else {
				if rng.Intn(3) == 0 {
					tick += int64(rng.Intn(3 * int(wheelSpan(2)))) // cross cascade boundaries
				} else {
					tick += int64(rng.Intn(4))
				}
				buf = w.drain(tick)
				want = want[:0]
				keep := model[:0]
				for _, e := range model {
					if e.wake <= tick {
						want = append(want, e)
					} else {
						keep = append(keep, e)
					}
				}
				model = keep
				sortEntries(buf)
				sortEntries(want)
				if !reflect.DeepEqual(append([]dueEntry{}, buf...), append([]dueEntry{}, want...)) {
					t.Fatalf("step %d tick %d: wheel drained %+v, reference sweep %+v", step, tick, buf, want)
				}
			}
			if w.len() != len(model) {
				t.Fatalf("step %d: wheel len %d, reference %d", step, w.len(), len(model))
			}
		}
	})
}

// TestWheelSerializesThroughCheckpoint: a snapshot/restore round trip
// re-anchors the wheel cursor at the restored count. Without the
// re-anchor, restoring a long-running scheduler into a fresh wheel
// (cursor 0) would make the first drain spin count× through empty slots
// and emit nothing late; with it, far-future postponements survive the
// round trip bit-exactly (covered by the equivalence and snapshot
// property tests) and the first post-restore drain services the next
// tick directly. This pins the cursor position.
func TestWheelSerializesThroughCheckpoint(t *testing.T) {
	s := New(Config{Quantum: q})
	for i := 0; i < 4; i++ {
		if err := s.Add(TaskID(i), 500); err != nil {
			t.Fatal(err)
		}
	}
	idle := func(TaskID) (Progress, bool) { return Progress{}, true }
	for i := 0; i < 300; i++ {
		s.TickQuantum(idle)
	}
	r := New(Config{Quantum: q})
	if err := r.Restore(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	w := r.due
	if want := s.Tick() + 1; w.cur != want {
		t.Fatalf("restored wheel cursor %d, want count+1 = %d", w.cur, want)
	}
	if w.len() != r.eligible {
		t.Fatalf("restored wheel holds %d entries for %d eligible tasks", w.len(), r.eligible)
	}
	if r.eligible == 0 {
		t.Fatal("workload error: no eligible tasks restored")
	}
	// And the restored run must track the uninterrupted one tick for tick.
	for i := 0; i < 50; i++ {
		want := s.TickQuantum(idle)
		got := r.TickQuantum(idle)
		if !reflect.DeepEqual(copyDecision(want), copyDecision(got)) {
			t.Fatalf("tick %d post-restore decisions diverge", i)
		}
	}
}
