package main

import "testing"

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},           // overlapping pool reads
		{[]interval{{20, 30}, {0, 10}}, 20},          // disjoint, unsorted
		{[]interval{{0, 30}, {5, 10}, {12, 20}}, 30}, // nested
		{[]interval{{0, 10}, {10, 20}}, 20},          // touching
		{[]interval{{5, 5}, {7, 3}}, 0},              // empty and inverted
	}
	for _, c := range cases {
		if got := unionLen(append([]interval(nil), c.ivs...)); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

// TestLedgerSelfTimes builds one quantum by hand: a 100ns Step holding
// two overlapping pool reads and a core sample phase that contains one
// observer call and one read of its own, plus a scrape on its own
// goroutine that must not count against the Step.
func TestLedgerSelfTimes(t *testing.T) {
	tr := newTracer(16)
	tr.q.Store(0)
	tr.record(spStep, 0, 100)
	tr.record(spRead, 10, 30)
	tr.record(spRead, 20, 40)       // overlaps the first: union 10..40
	tr.record(spCoreSample, 50, 90) // 40ns phase
	tr.record(spObserve, 55, 60)
	tr.record(spRead, 70, 80)
	tr.record(spScrape, 0, 1000)
	l := buildLedger(tr)

	if l.quanta != 1 {
		t.Fatalf("quanta = %d, want 1", l.quanta)
	}
	// Step children cover 10..40 and 50..90: 70ns of 100.
	if l.loopSelf != 30 {
		t.Errorf("loop self = %d, want 30", l.loopSelf)
	}
	// The phase's children cover 55..60 and 70..80: 15ns of 40.
	if l.coreSelf != 25 {
		t.Errorf("core self = %d, want 25", l.coreSelf)
	}
	if l.readSum != 50 || l.readUnion != 40 || l.reads != 3 {
		t.Errorf("reads: sum %d union %d count %d, want 50 40 3", l.readSum, l.readUnion, l.reads)
	}
	if len(l.scrapes) != 1 {
		t.Errorf("scrapes = %v, want one", l.scrapes)
	}
	parents := map[spanKind][]int32{}
	for i, s := range l.orderedSpans {
		parents[s.kind] = append(parents[s.kind], l.parentOf[i])
	}
	step := parents[spStep][0]
	if step != -1 {
		t.Errorf("step parent = %d, want root", step)
	}
	if got := parents[spScrape][0]; got != -1 {
		t.Errorf("scrape parent = %d, want root", got)
	}
	phase := int32(-1)
	for i, s := range l.orderedSpans {
		if s.kind == spCoreSample {
			phase = int32(i)
		}
	}
	if got := parents[spObserve][0]; got != phase {
		t.Errorf("observe parent = %d, want the sample phase %d", got, phase)
	}
	if r := parents[spRead]; r[2] != phase || l.orderedSpans[r[0]].kind != spStep {
		t.Errorf("read parents = %v, want [step step phase]", r)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one = %v, want 7", got)
	}
}
