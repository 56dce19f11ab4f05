package osproc

import (
	"os/exec"
	"reflect"
	"testing"
	"time"
)

func statLine(pid, ppid, ticks int, state string) string {
	return itoa(pid) + " (w) " + state + " " + itoa(ppid) +
		" 1 1 0 -1 0 0 0 0 0 " + itoa(ticks) +
		" 0 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
}

func TestDescendantsFixture(t *testing.T) {
	root := withFakeProc(t)
	// Tree: 100 -> {101, 102}; 102 -> 103; unrelated: 200 -> 201;
	// zombie child 104 of 100 is excluded.
	writeStat(t, root, 100, statLine(100, 1, 0, "S"))
	writeStat(t, root, 101, statLine(101, 100, 0, "R"))
	writeStat(t, root, 102, statLine(102, 100, 0, "S"))
	writeStat(t, root, 103, statLine(103, 102, 0, "R"))
	writeStat(t, root, 104, statLine(104, 100, 0, "Z"))
	writeStat(t, root, 200, statLine(200, 1, 0, "R"))
	writeStat(t, root, 201, statLine(201, 200, 0, "R"))

	got, err := Descendants(100)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{100, 101, 102, 103}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Descendants(100) = %v, want %v", got, want)
	}
	got, err = Descendants(200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{200, 201}) {
		t.Errorf("Descendants(200) = %v", got)
	}
	// A dead root has no tree.
	got, err = Descendants(999)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("Descendants(dead) = %v, want empty", got)
	}
}

// TestDescendantsCycleSafe: corrupted ppid data forming a cycle must not
// hang the walk.
func TestDescendantsCycleSafe(t *testing.T) {
	root := withFakeProc(t)
	writeStat(t, root, 300, statLine(300, 301, 0, "R"))
	writeStat(t, root, 301, statLine(301, 300, 0, "R"))
	got, err := Descendants(300)
	if err != nil {
		t.Fatal(err)
	}
	// 300 reaches itself; 301's chain reaches 300 too.
	if len(got) != 2 {
		t.Errorf("cyclic Descendants = %v", got)
	}
}

// TestDescendantsReal spawns a real shell that forks a child and checks
// both appear in the tree.
func TestDescendantsReal(t *testing.T) {
	requireProc(t)
	cmd := exec.Command("/bin/sh", "-c", "sleep 5 & wait")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn shell: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	deadline := time.Now().Add(3 * time.Second)
	for {
		got, err := Descendants(cmd.Process.Pid)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) >= 2 {
			foundRoot := false
			for _, pid := range got {
				if pid == cmd.Process.Pid {
					foundRoot = true
				}
			}
			if !foundRoot {
				t.Errorf("tree %v missing root %d", got, cmd.Process.Pid)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never appeared under %d: %v", cmd.Process.Pid, got)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestParseStatPPID(t *testing.T) {
	st, err := parseStat(7, []byte(statLine(7, 42, 5, "R")))
	if err != nil {
		t.Fatal(err)
	}
	if st.PPID != 42 {
		t.Errorf("PPID = %d, want 42", st.PPID)
	}
}
