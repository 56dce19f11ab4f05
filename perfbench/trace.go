package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
	"alps/internal/osproc"
)

// spanKind names a layer boundary the traced run times from outside the
// program: every span is taken in this package, around a call into one
// layer.
type spanKind uint8

const (
	spStep        spanKind = iota // osproc: one Runner.Step
	spRead                        // procfs: one Sys.ReadStat
	spSignal                      // signals: one Stop/Cont/StopGroup/ContGroup
	spObserve                     // obs: one Observer.Observe (metrics, recorder, auditor)
	spCoreSample                  // core: stage 1, between its phase markers
	spCoreCharge                  // core: stage 2
	spCoreDecide                  // core: stage 3
	spOnCycle                     // obs: the OnCycle chain (journal, histograms, auditor)
	spCkptHandoff                 // ckpt: state copy plus Writer.Offer
	spCkptWrite                   // ckpt: one atomic write on the writer goroutine
	spScrape                      // obs: one Registry.WritePrometheus
	spHistSample                  // tshist: one Store.Sample
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"osproc.step", "procfs.read", "signal.call", "obs.observe",
	"core.sample", "core.charge", "core.decide", "obs.oncycle",
	"ckpt.handoff", "ckpt.write", "obs.scrape", "tshist.sample",
}

// span is one timed call. Times are nanoseconds from the tracer's origin;
// q is the measured quantum the span belongs to.
type span struct {
	start, end int64
	q          int32
	kind       spanKind
}

// tracer records spans into a buffer preallocated before the run, so
// tracing allocates nothing while the loop runs. Spans outside the
// measured window (q < 0) are not kept.
type tracer struct {
	origin  time.Time
	q       atomic.Int32
	n       atomic.Int64
	dropped atomic.Int64
	buf     []span

	// lastSignalEnd is when the runner's last signal phase of the current
	// Step ended; the checkpoint hook starts its span there, so the span
	// covers the state copy Step makes before calling the hook. Touched
	// only on the loop goroutine.
	lastSignalEnd int64
	phaseStart    [3]int64
	events        [16]int64 // measured events by obs.Kind
}

func newTracer(capacity int) *tracer {
	t := &tracer{origin: time.Now(), buf: make([]span, capacity)}
	t.q.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(k spanKind, start, end int64) {
	q := t.q.Load()
	if q < 0 {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{start: start, end: end, q: q, kind: k}
}

func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// sysProbe decorates the runner's Sys. It always counts calls and
// failures (the end-to-end run reports them); with a tracer it also
// times every call and classifies reads as useful or not.
type sysProbe struct {
	osproc.Sys
	tr *tracer

	reads, readFails atomic.Int64
	sigs, sigFails   atomic.Int64

	// Read usefulness, traced run only: last (CPU, state) seen per child,
	// indexed through the read-only pid→slot map built before the run.
	slot        map[int]int
	last        []atomic.Uint64
	usefulReads atomic.Int64
	seenReads   atomic.Int64

	// Signal calls in measured quanta, traced run only, and how many of
	// them were kill(-pgid) group signals.
	loopSigs, groupSigs atomic.Int64
}

func newSysProbe(tr *tracer, children []child) *sysProbe {
	p := &sysProbe{Sys: osproc.RealSys{}, tr: tr}
	if tr != nil {
		p.slot = make(map[int]int, len(children))
		for i, c := range children {
			p.slot[c.pid] = i
		}
		p.last = make([]atomic.Uint64, len(children))
	}
	return p
}

func (p *sysProbe) ReadStat(pid int) (osproc.Stat, error) {
	var t0 int64
	if p.tr != nil {
		t0 = p.tr.now()
	}
	st, err := p.Sys.ReadStat(pid)
	p.reads.Add(1)
	if err != nil {
		p.readFails.Add(1)
	}
	if p.tr == nil {
		return st, err
	}
	p.tr.record(spRead, t0, p.tr.now())
	if i, ok := p.slot[pid]; ok && err == nil {
		// Packed (CPU ticks, state); +1 keeps a first read distinct from
		// the zero value, so it counts as useful.
		v := uint64(st.CPU/osproc.ClockTick)<<8 | uint64(st.State) + 1
		if old := p.last[i].Swap(v); p.tr.q.Load() >= 0 {
			p.seenReads.Add(1)
			if old != v {
				p.usefulReads.Add(1)
			}
		}
	}
	return st, err
}

func (p *sysProbe) signal(call func(int) error, pid int, group bool) error {
	var t0 int64
	if p.tr != nil {
		t0 = p.tr.now()
	}
	err := call(pid)
	p.sigs.Add(1)
	if err != nil {
		p.sigFails.Add(1)
	}
	if p.tr != nil {
		p.tr.record(spSignal, t0, p.tr.now())
		if p.tr.q.Load() >= 0 {
			p.loopSigs.Add(1)
			if group {
				p.groupSigs.Add(1)
			}
		}
	}
	return err
}

func (p *sysProbe) Stop(pid int) error       { return p.signal(p.Sys.Stop, pid, false) }
func (p *sysProbe) Cont(pid int) error       { return p.signal(p.Sys.Cont, pid, false) }
func (p *sysProbe) StopGroup(pgid int) error { return p.signal(p.Sys.StopGroup, pgid, true) }
func (p *sysProbe) ContGroup(pgid int) error { return p.signal(p.Sys.ContGroup, pgid, true) }

func (p *sysProbe) attempted() int64 { return p.reads.Load() + p.sigs.Load() }
func (p *sysProbe) failed() int64    { return p.readFails.Load() + p.sigFails.Load() }

// obsProbe times each Observe call, counts events by kind, and turns the
// core's phase markers into core.sample/charge/decide spans. The phase
// span runs from the return of its begin marker to the call of its end
// marker, so the marker deliveries themselves count as obs time.
type obsProbe struct {
	inner obs.Observer
	tr    *tracer
}

func (o obsProbe) Observe(e obs.Event) {
	t0 := o.tr.now()
	o.inner.Observe(e)
	t1 := o.tr.now()
	o.tr.record(spObserve, t0, t1)
	if o.tr.q.Load() >= 0 && int(e.Kind) < len(o.tr.events) {
		o.tr.events[e.Kind]++
	}
	if e.Kind != obs.KindPhaseBegin && e.Kind != obs.KindPhaseEnd {
		return
	}
	switch ph := obs.Phase(e.N); {
	case ph <= obs.PhaseDecide && e.Kind == obs.KindPhaseBegin:
		o.tr.phaseStart[ph] = t1
	case ph <= obs.PhaseDecide:
		o.tr.record(spCoreSample+spanKind(ph), o.tr.phaseStart[ph], t0)
	case ph == obs.PhaseSignal && e.Kind == obs.KindPhaseEnd:
		o.tr.lastSignalEnd = t1
	}
}

// instrument wraps the wired config's Observer, OnCycle and Checkpoint
// hooks in timing decorators.
func (t *tracer) instrument(cfg *osproc.Config) {
	cfg.Observer = obsProbe{inner: cfg.Observer, tr: t}
	onCycle := cfg.OnCycle
	cfg.OnCycle = func(rec core.CycleRecord) {
		t0 := t.now()
		onCycle(rec)
		t.record(spOnCycle, t0, t.now())
	}
	checkpoint := cfg.Checkpoint
	cfg.Checkpoint = func(s osproc.RunnerState) {
		checkpoint(s)
		t.record(spCkptHandoff, t.lastSignalEnd, t.now())
	}
}

// timed runs fn as a span of kind k when tracing, plainly otherwise.
func (t *tracer) timed(k spanKind, fn func()) {
	if t == nil {
		fn()
		return
	}
	t0 := t.now()
	fn()
	t.record(k, t0, t.now())
}

// interval is a half-open time range.
type interval struct{ a, b int64 }

// unionLen returns the total length covered by ivs (sorted in place),
// so overlapping spans — concurrent pool reads — count once.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, iv := range ivs {
		if iv.b <= iv.a {
			continue
		}
		if open && iv.a <= curB {
			if iv.b > curB {
				curB = iv.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv.a, iv.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// clip limits iv to the range [a, b].
func clip(iv interval, a, b int64) interval {
	if iv.a < a {
		iv.a = a
	}
	if iv.b > b {
		iv.b = b
	}
	return iv
}

// ledger is the traced run's per-layer breakdown, summed over the
// measured quanta.
type ledger struct {
	quanta        int
	loopSelf      int64 // Step minus the union of its child spans
	coreSelf      int64 // core phases minus the union of their child spans
	readSum       int64 // Σ read span lengths
	readUnion     int64 // Σ per-quantum union of read spans
	reads         int
	readDur       []float64 // µs
	sigSum        int64
	sigs          int
	sigDur        []float64 // µs
	observeSum    int64
	onCycleSum    int64
	onCycles      int
	handoffSum    int64
	handoffs      int
	ckptWrites    []float64 // ms
	scrapes       []float64 // ms
	histSamples   []float64 // µs
	parentOf      []int32   // per span, index of its parent (-1: root)
	orderedSpans  []span
	droppedSpans  int64
	spanBufferCap int
}

// buildLedger groups the recorded spans by quantum, assigns each its
// parent (the innermost enclosing core phase, else the quantum's Step),
// and computes self times as duration minus the union of child spans.
func buildLedger(t *tracer) *ledger {
	sp := append([]span(nil), t.spans()...)
	sort.SliceStable(sp, func(i, j int) bool {
		if sp[i].q != sp[j].q {
			return sp[i].q < sp[j].q
		}
		return sp[i].start < sp[j].start
	})
	l := &ledger{orderedSpans: sp, parentOf: make([]int32, len(sp)),
		droppedSpans: t.dropped.Load(), spanBufferCap: len(t.buf)}
	for i := range l.parentOf {
		l.parentOf[i] = -1
	}
	us := func(d int64) float64 { return float64(d) / 1e3 }
	ms := func(d int64) float64 { return float64(d) / 1e6 }
	var kids, phaseKids, reads []interval
	for lo := 0; lo < len(sp); {
		hi := lo
		for hi < len(sp) && sp[hi].q == sp[lo].q {
			hi++
		}
		step := -1
		var phases []int
		for i := lo; i < hi; i++ {
			switch sp[i].kind {
			case spStep:
				step = i
			case spCoreSample, spCoreCharge, spCoreDecide:
				phases = append(phases, i)
			}
		}
		kids, reads = kids[:0], reads[:0]
		for i := lo; i < hi; i++ {
			s := sp[i]
			iv := interval{s.start, s.end}
			switch s.kind {
			case spCkptWrite:
				l.ckptWrites = append(l.ckptWrites, ms(s.end-s.start))
				continue
			case spScrape:
				l.scrapes = append(l.scrapes, ms(s.end-s.start))
				continue
			case spHistSample:
				l.histSamples = append(l.histSamples, us(s.end-s.start))
				continue
			case spStep:
				continue
			case spRead:
				reads = append(reads, iv)
				l.readSum += s.end - s.start
				l.reads++
				l.readDur = append(l.readDur, us(s.end-s.start))
			case spSignal:
				l.sigSum += s.end - s.start
				l.sigs++
				l.sigDur = append(l.sigDur, us(s.end-s.start))
			case spObserve:
				l.observeSum += s.end - s.start
			case spOnCycle:
				l.onCycleSum += s.end - s.start
				l.onCycles++
			case spCkptHandoff:
				l.handoffSum += s.end - s.start
				l.handoffs++
			}
			if step >= 0 {
				st := sp[step]
				kids = append(kids, clip(iv, st.start, st.end))
				l.parentOf[i] = int32(step)
			}
			for _, ph := range phases {
				if ph != i && sp[ph].start <= s.start && s.end <= sp[ph].end {
					l.parentOf[i] = int32(ph)
				}
			}
		}
		if len(reads) > 0 {
			l.readUnion += unionLen(reads)
		}
		for _, ph := range phases {
			p := sp[ph]
			phaseKids = phaseKids[:0]
			for i := lo; i < hi; i++ {
				if l.parentOf[i] == int32(ph) {
					phaseKids = append(phaseKids, interval{sp[i].start, sp[i].end})
				}
			}
			l.coreSelf += p.end - p.start - unionLen(phaseKids)
		}
		if step >= 0 {
			// The phase spans are the Step's children too; their own
			// children lie inside them, so the union is unchanged.
			st := sp[step]
			l.loopSelf += st.end - st.start - unionLen(kids)
			l.quanta++
		}
		lo = hi
	}
	return l
}

// writeSpans writes every recorded span as gzipped CSV (row, quantum,
// name, start_ns, end_ns, parent_row; parent -1 for a root), the trace
// kept in memory during the run.
func (l *ledger) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "row,quantum,name,start_ns,end_ns,parent_row")
	for i, s := range l.orderedSpans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", i, s.q, spanNames[s.kind], s.start, s.end, l.parentOf[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
