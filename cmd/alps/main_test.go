package main

import (
	"flag"
	"testing"
	"time"
)

func TestParsePidShares(t *testing.T) {
	tasks, err := parsePidShares([]string{"100:1", "200:3", "300:5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[1].PIDs[0] != 200 || tasks[1].Share != 3 || tasks[1].ID != 1 {
		t.Errorf("task[1] = %+v", tasks[1])
	}
}

func TestParsePidSharesErrors(t *testing.T) {
	cases := [][]string{
		{},                 // empty
		{"100"},            // no colon
		{"x:1"},            // bad pid
		{"100:y"},          // bad share
		{"100:1", "::"},    // garbage
		{"0:1"},            // pid must be positive
		{"-5:1"},           // negative pid
		{"100:0"},          // share must be positive
		{"100:-2"},         // negative share
		{"100:1", "100:3"}, // duplicate pid
		{"100:1", "200:0"}, // one bad pair poisons the set
	}
	for _, args := range cases {
		if _, err := parsePidShares(args); err == nil {
			t.Errorf("parsePidShares(%v) should fail", args)
		}
	}
}

func TestCommonOptsValidate(t *testing.T) {
	mk := func(q, maxq time.Duration) commonOpts {
		return commonOpts{q: &q, maxq: &maxq}
	}
	cases := []struct {
		name string
		opts commonOpts
		ok   bool
	}{
		{"defaults", mk(20*time.Millisecond, 40*time.Millisecond), true},
		{"guard off", mk(20*time.Millisecond, 0), true},
		{"maxq equals q", mk(20*time.Millisecond, 20*time.Millisecond), true},
		{"zero quantum", mk(0, 40*time.Millisecond), false},
		{"negative quantum", mk(-time.Millisecond, 40*time.Millisecond), false},
		{"negative maxq", mk(20*time.Millisecond, -time.Millisecond), false},
		{"maxq below q", mk(20*time.Millisecond, 10*time.Millisecond), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.validate(); (err == nil) != tc.ok {
				t.Errorf("validate() = %v, want ok=%t", err, tc.ok)
			}
		})
	}
}

// A -q above the defaulted 40ms -maxq must not be an error — the
// default rescales to 2q so README's `user -q 100ms` works — while an
// explicit -maxq below -q stays rejected as an operator contradiction.
func TestMaxqDefaultScalesWithQuantum(t *testing.T) {
	parse := func(args ...string) commonOpts {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		opts := commonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return opts
	}

	opts := parse("-q", "100ms")
	if err := opts.validate(); err != nil {
		t.Fatalf("defaulted -maxq with -q 100ms: %v", err)
	}
	cfg := opts.config()
	if !cfg.Overload.Enable || cfg.Overload.MaxQuantum != 200*time.Millisecond {
		t.Errorf("guard = %+v, want enabled with MaxQuantum 200ms", cfg.Overload)
	}

	if err := parse("-q", "100ms", "-maxq", "40ms").validate(); err == nil {
		t.Error("explicit -maxq below -q should still be rejected")
	}

	opts = parse("-q", "100ms", "-maxq", "0")
	if err := opts.validate(); err != nil {
		t.Fatalf("explicit -maxq 0: %v", err)
	}
	if opts.config().Overload.Enable {
		t.Error("-maxq 0 should disable the guard")
	}
}

// The audit/timeline flags are validated up front like every other
// operator input: impossible windows, non-positive drift thresholds,
// and negative cadences fail fast.
func TestAuditFlagValidation(t *testing.T) {
	parse := func(args ...string) commonOpts {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		opts := commonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return opts
	}
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"explicit values", []string{"-audit-window", "64", "-audit-drift", "0.2", "-timeline-every", "500ms"}, true},
		{"one-cycle window", []string{"-audit-window", "1"}, true},
		{"zero window", []string{"-audit-window", "0"}, false},
		{"negative window", []string{"-audit-window", "-8"}, false},
		{"zero drift", []string{"-audit-drift", "0"}, false},
		{"negative drift", []string{"-audit-drift", "-0.1"}, false},
		{"timeline off", []string{"-timeline-every", "0"}, true},
		{"negative timeline cadence", []string{"-timeline-every", "-1s"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := parse(tc.args...).validate(); (err == nil) != tc.ok {
				t.Errorf("validate(%v) = %v, want ok=%t", tc.args, err, tc.ok)
			}
		})
	}
}

// The flag values must actually reach the stack: obsOptions carries them
// into newObsStack, and directly-constructed opts (tests, library use)
// degrade to the auditor defaults instead of dereferencing nil.
func TestObsOptionsFromFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	opts := commonFlags(fs)
	if err := fs.Parse([]string{"-http", ":0", "-audit-window", "7", "-audit-drift", "0.25",
		"-timeline-every", "250ms"}); err != nil {
		t.Fatal(err)
	}
	op := opts.obsOptions()
	want := obsOptions{addr: ":0", auditWindow: 7, auditDrift: 0.25,
		timelineEvery: 250 * time.Millisecond}
	if op != want {
		t.Errorf("obsOptions = %+v, want %+v", op, want)
	}

	var zero commonOpts
	if got := zero.obsOptions(); got != (obsOptions{}) {
		t.Errorf("zero opts obsOptions = %+v, want zero value", got)
	}

	st := newObsStack(op)
	if w, d := st.aud.Thresholds(); w != 7 || d != 0.25 {
		t.Errorf("auditor thresholds = (%d, %v), want (7, 0.25)", w, d)
	}
	if st.hist == nil {
		t.Error("timeline-every 250ms should build a history store")
	}
	if off := newObsStack(obsOptions{}); off.hist != nil {
		t.Error("zero timelineEvery should disable the history store")
	}
}

func TestCycleLoggerNilWhenDisabled(t *testing.T) {
	if cycleLogger(false) != nil {
		t.Error("disabled logger should be nil")
	}
	if cycleLogger(true) == nil {
		t.Error("enabled logger should not be nil")
	}
}
