package core

// Hierarchical timer wheel for the stage-1 due index (§2.3 wake ticks).
//
// A comparison-based index (a min-heap) makes stage 1 O(due·log n) per
// quantum: each push and pop pays a sift over the live entry set, so
// its per-push cost grows with fleet size even when the due set does
// not. A timing wheel makes both operations amortized O(1) and
// independent of N: wake ticks are integers that only ever advance, so
// they hash perfectly into slots.
//
// Geometry: wheelLevels levels of wheelSlots slots each. Level 0 holds
// entries due within the next wheelSlots ticks at 1-tick granularity;
// each higher level covers wheelSlots× the span below it at wheelSlots×
// coarser granularity. Entries beyond the top level's horizon (64³ =
// 262144 ticks ≈ 44 minutes at Q=10ms) sit in an unsorted overflow list
// that is re-homed into the wheel every span(1) ticks — long before any
// of its entries could come due, since membership there requires a wake
// at least a full horizon away.
//
// The cursor advances one tick per quantum (the scheduler's count), so
// draining is: empty the level-0 slot the cursor points at, and on
// slot-block boundaries cascade the next higher level's slot down.
// Entries are never removed in place: stale entries (task removed,
// re-measured, or turned ineligible) are discarded lazily at drain time
// by the caller's validation, and the scheduler compacts the whole
// index when stales outnumber live entries (see compactDue).
//
// Ordering: drain order is unspecified (lists are pushed and drained at
// their heads) and NOT globally sorted. That is fine by construction:
// the scheduler collects the whole due batch for a tick and sorts it by
// TaskID before any measurement or event emission, so wheel order never
// reaches the event stream.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
)

// wheelSpan returns the tick span covered by levels 0..l-1: 64^l.
func wheelSpan(l int) int64 { return 1 << (uint(l) * wheelBits) }

// dueWheel is the stage-1 due-task index: a multiset of (wake tick,
// task) entries with lazy invalidation, kept in a hierarchical timing
// wheel.
//
// Memory: every list (each slot, past, over) is an intrusive singly
// linked list threaded through one shared node arena, and drained nodes
// go onto a free list. The arena therefore grows only to the largest
// number of entries the wheel ever held at once; the scheduler bounds
// that at O(eligible) by compaction. Per-slot slices would instead keep
// each of the 3×64 slots at the largest capacity it ever needed, and
// ratchet up allocations long after warmup.
type dueWheel struct {
	cur int64 // next tick to drain; entries with wake < cur are in past
	n   int
	// nodes is the entry arena; nodes[0] is a sentinel, so a list head
	// or next link of 0 means "end of list".
	nodes []wheelNode
	free  int32 // head of the free-node list
	slots [wheelLevels][wheelSlots]int32
	// past holds entries pushed with an already-elapsed wake (re-armed
	// prefetch batches, restores); the next drain empties it.
	past int32
	// over holds entries beyond the wheel horizon, re-homed by cascade
	// every span(1) ticks.
	over int32
	// out is drain's result buffer. A drain returns at most the entries
	// held, so it is kept at the arena's capacity and grows only when
	// the arena does.
	out []dueEntry
}

// wheelNode is one arena slot: an entry and the arena index of the next
// node in the same list.
type wheelNode struct {
	e    dueEntry
	next int32
}

func newDueWheel() *dueWheel { return &dueWheel{nodes: make([]wheelNode, 1)} }

// len returns the number of entries currently held (live + stale).
func (w *dueWheel) len() int { return w.n }

// reset empties the index and re-anchors it so that cur is the next
// tick a drain will service (used by Restore and compaction). The arena
// keeps its capacity, so refilling it allocates nothing.
func (w *dueWheel) reset(cur int64) {
	w.nodes = w.nodes[:1]
	w.free = 0
	w.slots = [wheelLevels][wheelSlots]int32{}
	w.past, w.over = 0, 0
	w.cur = cur
	w.n = 0
}

// push schedules one entry. Entries with wake ticks already in the past
// are emitted by the next drain.
func (w *dueWheel) push(e dueEntry) {
	w.n++
	i := w.free
	if i != 0 {
		w.free = w.nodes[i].next
	} else {
		i = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{})
	}
	w.nodes[i].e = e
	w.link(i)
}

// link files node i at the head of the list its wake belongs in,
// relative to the current cursor.
func (w *dueWheel) link(i int32) {
	head := &w.over
	if d := w.nodes[i].e.wake - w.cur; d < 0 {
		head = &w.past
	} else {
		for l := 0; l < wheelLevels; l++ {
			if d < wheelSpan(l+1) {
				head = &w.slots[l][(w.nodes[i].e.wake>>(uint(l)*wheelBits))&wheelMask]
				break
			}
		}
	}
	w.nodes[i].next = *head
	*head = i
}

// drain removes every entry whose wake is <= tick and returns them (in
// no particular order). The returned slice is owned by the wheel and
// valid until the next drain. Ticks passed to successive drains must
// not decrease except via reset.
func (w *dueWheel) drain(tick int64) []dueEntry {
	if cap(w.out) < cap(w.nodes) {
		w.out = make([]dueEntry, 0, cap(w.nodes))
	}
	// Monotonic-tick contract: everything in past has wake < cur and
	// cur-1 <= tick, so all of it is due.
	buf := w.emit(&w.past, w.out[:0])
	for w.cur <= tick {
		buf = w.emit(&w.slots[0][w.cur&wheelMask], buf)
		w.cur++
		w.cascade()
	}
	return buf
}

// emit appends the entries of the list at *head to buf, empties the
// list and returns its nodes to the free list.
func (w *dueWheel) emit(head *int32, buf []dueEntry) []dueEntry {
	for i := *head; i != 0; {
		nd := &w.nodes[i]
		buf = append(buf, nd.e)
		next := nd.next
		nd.next = w.free
		w.free = i
		w.n--
		i = next
	}
	*head = 0
	return buf
}

// cascade redistributes higher-level slots downward when the cursor
// crosses their block boundaries, and re-homes overflow entries that now
// fit within the horizon. Each entry cascades at most wheelLevels times
// over its lifetime, so the per-tick cost is amortized O(1).
func (w *dueWheel) cascade() {
	if w.cur&wheelMask != 0 {
		return
	}
	w.relink(&w.slots[1][(w.cur>>wheelBits)&wheelMask])
	if (w.cur>>wheelBits)&wheelMask != 0 {
		return
	}
	w.relink(&w.slots[2][(w.cur>>(2*wheelBits))&wheelMask])
	w.relink(&w.over)
}

// relink empties the list at *head and re-files each of its nodes for
// the current cursor. A higher-level slot at the cursor holds only
// deltas below that level's span, so its nodes land strictly lower;
// overflow nodes still beyond the horizon land back in over.
func (w *dueWheel) relink(head *int32) {
	i := *head
	*head = 0
	for i != 0 {
		next := w.nodes[i].next
		w.link(i)
		i = next
	}
}
