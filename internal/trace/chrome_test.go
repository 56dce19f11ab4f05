package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"alps/internal/obs"
)

// stream builds a two-quantum event stream with substrate-style
// timestamps, exercising every track the builder emits.
func sampleStream() []obs.Event {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	ph := func(k obs.Kind, tick int64, p obs.Phase, at time.Duration) obs.Event {
		return obs.Event{Kind: k, Tick: tick, Task: -1, N: int(p), At: at}
	}
	return []obs.Event{
		{Kind: obs.KindQuantumStart, Tick: 1, Task: -1, N: 2, At: ms(0)},
		ph(obs.KindPhaseBegin, 1, obs.PhaseSample, ms(0)),
		{Kind: obs.KindMeasure, Tick: 1, Task: 1, Consumed: ms(5), At: ms(0) + 100*time.Microsecond},
		ph(obs.KindPhaseEnd, 1, obs.PhaseSample, ms(0)+200*time.Microsecond),
		ph(obs.KindPhaseBegin, 1, obs.PhaseCharge, ms(0)+200*time.Microsecond),
		{Kind: obs.KindCycle, Tick: 1, Task: -1, Cycle: 0, N: 2, Length: ms(30), At: ms(0) + 250*time.Microsecond},
		{Kind: obs.KindGrant, Tick: 1, Task: 1, Cycle: 0, Allowance: ms(10), At: ms(0) + 250*time.Microsecond},
		{Kind: obs.KindGrant, Tick: 1, Task: 2, Cycle: 0, Allowance: ms(20), At: ms(0) + 250*time.Microsecond},
		ph(obs.KindPhaseEnd, 1, obs.PhaseCharge, ms(0)+300*time.Microsecond),
		ph(obs.KindPhaseBegin, 1, obs.PhaseDecide, ms(0)+300*time.Microsecond),
		{Kind: obs.KindTransition, Tick: 1, Task: 1, Eligible: true, Reason: obs.ReasonGrant, At: ms(0) + 350*time.Microsecond},
		{Kind: obs.KindTransition, Tick: 1, Task: 2, Eligible: true, Reason: obs.ReasonGrant, At: ms(0) + 350*time.Microsecond},
		{Kind: obs.KindPostpone, Tick: 1, Task: 2, Wake: 3, Allowance: ms(20), At: ms(0) + 350*time.Microsecond},
		ph(obs.KindPhaseEnd, 1, obs.PhaseDecide, ms(0)+400*time.Microsecond),
		{Kind: obs.KindQuantumEnd, Tick: 1, Task: -1, N: 1, At: ms(0) + 400*time.Microsecond},
		ph(obs.KindPhaseBegin, 1, obs.PhaseSignal, ms(0)+400*time.Microsecond),
		ph(obs.KindPhaseEnd, 1, obs.PhaseSignal, ms(0)+500*time.Microsecond),
		ph(obs.KindPhaseBegin, 1, obs.PhaseSleep, ms(0)+500*time.Microsecond),
		ph(obs.KindPhaseEnd, 2, obs.PhaseSleep, ms(10)),

		{Kind: obs.KindQuantumStart, Tick: 2, Task: -1, N: 2, At: ms(10)},
		ph(obs.KindPhaseBegin, 2, obs.PhaseSample, ms(10)),
		{Kind: obs.KindMeasure, Tick: 2, Task: 1, Consumed: ms(10), At: ms(10) + 100*time.Microsecond},
		ph(obs.KindPhaseEnd, 2, obs.PhaseSample, ms(10)+200*time.Microsecond),
		ph(obs.KindPhaseBegin, 2, obs.PhaseCharge, ms(10)+200*time.Microsecond),
		ph(obs.KindPhaseEnd, 2, obs.PhaseCharge, ms(10)+220*time.Microsecond),
		ph(obs.KindPhaseBegin, 2, obs.PhaseDecide, ms(10)+220*time.Microsecond),
		{Kind: obs.KindTransition, Tick: 2, Task: 1, Eligible: false, Reason: obs.ReasonExhausted, At: ms(10) + 250*time.Microsecond},
		ph(obs.KindPhaseEnd, 2, obs.PhaseDecide, ms(10)+300*time.Microsecond),
		{Kind: obs.KindQuantumEnd, Tick: 2, Task: -1, N: 1, At: ms(10) + 300*time.Microsecond},
		{Kind: obs.KindDead, Tick: 2, Task: 2, At: ms(10) + 310*time.Microsecond},
		{Kind: obs.KindDegrade, Tick: 2, Task: -1, N: 1, Reason: obs.ReasonOverload, Length: ms(20), At: ms(10) + 320*time.Microsecond},
		{Kind: obs.KindReconfig, Tick: 2, Task: -1, At: ms(10) + 330*time.Microsecond},
	}
}

func marshalTrace(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, map[string]any{"substrate": "test"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteChromeValid(t *testing.T) {
	data := marshalTrace(t, sampleStream())
	if err := Validate(data); err != nil {
		t.Fatalf("generated trace fails validation: %v\n%s", err, data)
	}
}

func TestBuildTracks(t *testing.T) {
	evs := Build(sampleStream())
	count := func(name, ph string) int {
		n := 0
		for _, e := range evs {
			if e.Name == name && e.Ph == ph {
				n++
			}
		}
		return n
	}
	if got := count("quantum", "X"); got != 2 {
		t.Errorf("quantum spans = %d, want 2", got)
	}
	// Tick 1 emits sample+charge+decide+signal+sleep, tick 2
	// sample+charge+decide: 8 phase spans.
	phases := 0
	for _, p := range obs.Phases() {
		phases += count(p.String(), "X")
	}
	if phases != 8 {
		t.Errorf("phase spans = %d, want 8", phases)
	}
	// Task 1: opened by the tick-1 grant transition, closed by the
	// tick-2 exhaustion. Task 2: opened at tick 1, closed by death.
	if got := count("eligible", "X"); got != 2 {
		t.Errorf("eligibility spans = %d, want 2", got)
	}
	if got := count("dead", "i"); got != 1 {
		t.Errorf("dead instants = %d, want 1", got)
	}
	for _, want := range []string{"measure", "grant", "postpone", "cycle", "degrade", "reconfig"} {
		if count(want, "i") == 0 {
			t.Errorf("no %q instant emitted", want)
		}
	}
	// Track metadata names both processes.
	if got := count("process_name", "M"); got != 2 {
		t.Errorf("process_name metadata = %d, want 2", got)
	}
}

// TestBuildTruncatedWindow: a flight-recorder window usually starts
// mid-flight. Closing edges without an opening edge must synthesize the
// start at the window boundary, and the result must still validate.
func TestBuildTruncatedWindow(t *testing.T) {
	full := sampleStream()
	// Chop so the window starts inside quantum 1's decide phase: the
	// leading events include a PhaseEnd(decide), a QuantumEnd, and a
	// later Transition(false) whose opens were all dropped.
	var cut int
	for i, e := range full {
		if e.Kind == obs.KindTransition && e.Eligible && e.Task == 2 {
			cut = i + 1 // keep everything after task 2's open
			break
		}
	}
	window := full[cut:]
	data := marshalTrace(t, window)
	if err := Validate(data); err != nil {
		t.Fatalf("truncated window fails validation: %v\n%s", err, data)
	}
	evs := Build(window)
	found := false
	for _, e := range evs {
		if e.Name == "eligible" && e.Ph == "X" && e.TID == 1 {
			found = true
		}
	}
	if !found {
		t.Error("task 1's eligibility span (open edge truncated) was not synthesized")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{"traceEvents": [`,
		"no traceEvents": `{"foo": []}`,
		"missing pid":    `{"traceEvents": [{"name":"x","ph":"X","ts":0,"tid":1,"dur":1}]}`,
		"missing ph":     `{"traceEvents": [{"name":"x","ts":0,"pid":1,"tid":1}]}`,
		"negative dur":   `{"traceEvents": [{"name":"x","ph":"X","ts":0,"pid":1,"tid":1,"dur":-5}]}`,
		"overlapping spans": `{"traceEvents": [
			{"name":"a","ph":"X","ts":0,"pid":1,"tid":1,"dur":10},
			{"name":"b","ph":"X","ts":5,"pid":1,"tid":1,"dur":10}]}`,
	}
	for name, doc := range cases {
		if err := Validate([]byte(doc)); err == nil {
			t.Errorf("%s: Validate accepted %s", name, doc)
		}
	}
	// Properly nested and disjoint spans pass.
	ok := `{"traceEvents": [
		{"name":"p","ph":"X","ts":0,"pid":1,"tid":1,"dur":10},
		{"name":"c","ph":"X","ts":2,"pid":1,"tid":1,"dur":3},
		{"name":"d","ph":"X","ts":5,"pid":1,"tid":1,"dur":5},
		{"name":"next","ph":"X","ts":20,"pid":1,"tid":1,"dur":1}]}`
	if err := Validate([]byte(ok)); err != nil {
		t.Errorf("nested spans rejected: %v", err)
	}
}

// TestWriteChromeEmpty: an empty stream still yields a valid document.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("empty trace = %s", buf.String())
	}
}

// TestChromeDocShape: the document parses as the standard JSON Object
// Format with microsecond timestamps.
func TestChromeDocShape(t *testing.T) {
	data := marshalTrace(t, sampleStream())
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		OtherData       map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["substrate"] != "test" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	// The second quantum starts at 10ms = 10000µs.
	found := false
	for _, e := range doc.TraceEvents {
		if e["name"] == "quantum" && e["ts"] == 10000.0 {
			found = true
		}
	}
	if !found {
		t.Error("quantum 2 span not at ts=10000µs")
	}
}
