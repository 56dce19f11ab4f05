package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"alps/internal/core"
	"alps/internal/osproc"
)

// role is what one child process does.
type role uint8

const (
	sleeper  role = iota // blocked in sleep(1) for the whole run
	spinner              // alps-spin: a pure CPU loop
	ioMember             // alps-spin -burst/-sleep: the §3.3 duty cycle
)

// I/O duty cycle of the §3.3 experiment (internal/exp.DefaultIOParams).
const (
	ioBurst = 80 * time.Millisecond
	ioSleep = 240 * time.Millisecond
)

// member is one child of a principal.
type member struct {
	role  role
	delay time.Duration // ioMember only: start offset into the duty cycle
}

// principal is one ALPS task: a share and the processes it covers.
type principal struct {
	share   int64
	members []member
	always  bool // always runnable: part of the share reference
}

// workload is the generated input of one run.
type workload struct {
	name       string
	principals []principal
}

var workloadNames = []string{"idle-fleet", "spin-share", "io-groups"}

// idleFleetSize is idle-fleet's sleeper count. It is kept well below the
// overload guard's threshold: on a 2-vCPU host with the full stack
// attached, 500 sleepers already put the median Step near Q/2, where the
// guard engages in some runs and not others, and at 300 a slow moment of
// the host makes the loop miss ticks often enough that the catch-up
// passes decide the run's p99.
const idleFleetSize = 200

// genWorkload builds a workload from its name and the seed. The seed
// drives the share permutation, member-role placement and duty-cycle
// phase offsets; the shape (counts, share sets, roles) is fixed per
// workload. n overrides idle-fleet's sleeper count (0: idleFleetSize).
func genWorkload(name string, seed int64, n int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "idle-fleet":
		if n <= 0 {
			n = idleFleetSize
		}
		return idleFleet(rng, n), nil
	case "spin-share":
		wl := &workload{name: name}
		for _, s := range permute(rng, []int64{1, 2, 3, 4}) {
			wl.principals = append(wl.principals, principal{
				share: s, members: []member{{role: spinner}}, always: true,
			})
		}
		return wl, nil
	case "io-groups":
		return ioGroups(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// idleFleet: n single-PID sleepers plus two spinners, Table 2 linear
// shares (1,3,5,7,9) cycled over the sleepers in a seeded order. The two
// spinners hold shares 3 and 9 (a 1:3 pair) in seeded order and sit at
// seeded positions in the task list.
func idleFleet(rng *rand.Rand, n int) *workload {
	wl := &workload{name: "idle-fleet"}
	linear := permute(rng, []int64{1, 3, 5, 7, 9})
	for i := 0; i < n; i++ {
		wl.principals = append(wl.principals, principal{
			share: linear[i%len(linear)], members: []member{{role: sleeper}},
		})
	}
	for _, s := range permute(rng, []int64{3, 9}) {
		at := rng.Intn(len(wl.principals) + 1)
		p := principal{share: s, members: []member{{role: spinner}}, always: true}
		wl.principals = append(wl.principals[:at], append([]principal{p}, wl.principals[at:]...)...)
	}
	return wl
}

// ioGroups: eight 25-member principals.
// Four are always runnable (2 spinners + 23 sleepers) at shares 1:2:3:4;
// four are I/O principals (4 duty-cycled members + 21 sleepers) at
// shares 1:2:3:4. Shares, member positions, duty phases and the task
// order are all seeded.
func ioGroups(rng *rand.Rand) *workload {
	const size = 25
	wl := &workload{name: "io-groups"}
	build := func(share int64, busy int, r role, always bool) principal {
		p := principal{share: share, always: always, members: make([]member, size)}
		for _, i := range rng.Perm(size)[:busy] {
			p.members[i].role = r
			if r == ioMember {
				p.members[i].delay = time.Duration(rng.Int63n(int64(ioBurst + ioSleep)))
			}
		}
		return p
	}
	for _, s := range permute(rng, []int64{1, 2, 3, 4}) {
		wl.principals = append(wl.principals, build(s, 2, spinner, true))
	}
	for _, s := range permute(rng, []int64{1, 2, 3, 4}) {
		wl.principals = append(wl.principals, build(s, 4, ioMember, false))
	}
	rng.Shuffle(len(wl.principals), func(i, j int) {
		wl.principals[i], wl.principals[j] = wl.principals[j], wl.principals[i]
	})
	return wl
}

func permute(rng *rand.Rand, xs []int64) []int64 {
	out := make([]int64, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// childNice is the nice value every child runs at, applied by starting
// it through nice(1), which execs the program in place (same PID, same
// process group). The controller stays at nice 0, so it runs as soon as
// its timer fires and is not preempted by a child it has just resumed:
// the Step times the controller's own work. The paper's 4.4BSD host gave
// a mostly-sleeping ALPS the same precedence over CPU-bound processes
// through p_estcpu. At equal nice values a resumed spinner preempts the
// Step often enough that the Step mean, the Step median on spin-share
// and the controller CPU spread past the benchmark's bounds from run to
// run. All children share one nice value, so their relative CPU shares,
// which ALPS controls, are what they would be at nice 0.
const childNice = 19

// child is one spawned process.
type child struct {
	pid       int
	principal int
	role      role
}

// fleet owns every child the benchmark starts. kill is safe from any
// goroutine and idempotent, so the signal handler, the panic path and
// the normal exit can all call it.
type fleet struct {
	spin string // alps-spin binary
	self string // this binary, for delayed starts

	mu       sync.Mutex
	cmds     []*exec.Cmd
	children []child
	tasks    []osproc.Task
	killed   bool
}

// spawn starts every member of wl. Each child gets SIGKILL as its
// parent-death signal, so even a benchmark killed with SIGKILL leaves no
// spinner burning the host's cores.
func (f *fleet) spawn(wl *workload) error {
	for pi, p := range wl.principals {
		task := osproc.Task{ID: core.TaskID(pi), Share: p.share}
		for _, m := range p.members {
			argv := []string{"sleep", "86400"}
			switch m.role {
			case spinner:
				argv = []string{f.spin}
			case ioMember:
				argv = []string{f.self, execAfterFlag, m.delay.String(), f.spin,
					"-burst", ioBurst.String(), "-sleep", ioSleep.String()}
			}
			cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(childNice)}, argv...)...)
			// Every principal is its own process group led by its first
			// member, with Task.PGID set, as `alps spawn` starts them: the
			// Runner signals it with one kill(-pgid).
			cmd.SysProcAttr = &syscall.SysProcAttr{
				Pdeathsig: syscall.SIGKILL,
				Setpgid:   true,
				Pgid:      task.PGID, // 0 for the first member: it leads
			}
			f.mu.Lock()
			if f.killed {
				f.mu.Unlock()
				return fmt.Errorf("interrupted while spawning")
			}
			err := cmd.Start()
			if err == nil {
				f.cmds = append(f.cmds, cmd)
				f.children = append(f.children, child{pid: cmd.Process.Pid, principal: pi, role: m.role})
			}
			f.mu.Unlock()
			if err != nil {
				return fmt.Errorf("start nice %s: %w", argv[0], err)
			}
			task.PIDs = append(task.PIDs, cmd.Process.Pid)
			if task.PGID == 0 {
				task.PGID = cmd.Process.Pid
			}
		}
		f.tasks = append(f.tasks, task)
	}
	return nil
}

// kill SIGKILLs every child (stopped ones included) and reaps it.
func (f *fleet) kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return
	}
	f.killed = true
	for _, c := range f.cmds {
		_ = c.Process.Kill()
	}
	for _, c := range f.cmds {
		_ = c.Wait()
	}
}

// procState reads field 3 of /proc/<pid>/stat; 0 means the process is
// gone.
func procState(pid int) byte {
	st, err := osproc.ReadStat(pid)
	if err != nil {
		return 0
	}
	return st.State
}

// checkChildren is the end-of-run correctness gate, run after Release:
// every child must still be alive (none died that the benchmark did not
// kill) and none may be left stopped. SIGCONT takes effect inside the
// kill(2) call, so a child still in state T is re-read for up to 100ms
// only to ride out a concurrent /proc read, not to excuse a missed
// resume.
func (f *fleet) checkChildren() []string {
	var bad []string
	for _, c := range f.children {
		s := procState(c.pid)
		for tries := 0; s == 'T' && tries < 10; tries++ {
			time.Sleep(10 * time.Millisecond)
			s = procState(c.pid)
		}
		switch s {
		case 0, 'Z', 'X':
			bad = append(bad, fmt.Sprintf("pid %d (principal %d) died during the run", c.pid, c.principal))
		case 'T', 't':
			bad = append(bad, fmt.Sprintf("pid %d (principal %d) left stopped after Release", c.pid, c.principal))
		}
	}
	return bad
}

// execAfterFlag marks a delayed-start child: this binary re-executed as
// `perfbench -exec-after <delay> <program> <args...>` sleeps, then
// replaces itself with the program, keeping its PID and process group.
// This is how the seeded duty-cycle phase offsets are applied.
const execAfterFlag = "-exec-after"

func execAfter(args []string) {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -exec-after needs a delay and a program")
		os.Exit(2)
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	time.Sleep(d)
	err = syscall.Exec(args[1], args[1:], os.Environ())
	fmt.Fprintln(os.Stderr, "perfbench: exec", args[1]+":", err)
	os.Exit(2)
}

// schedReader reads each PID's CPU time in nanoseconds, summed over
// /proc/<pid>/task/*/schedstat: the per-process schedstat covers only the
// main thread, and alps-spin is a Go program whose spinning goroutine
// runs on whichever thread the runtime picks. File descriptors stay open
// between reads so a sample allocates nothing; a PID's thread list is
// re-read only when num_threads in /proc/<pid>/stat changes.
type schedReader struct {
	pids     []int
	stat     []int   // fd of /proc/<pid>/stat
	threads  [][]int // fds of /proc/<pid>/task/<tid>/schedstat
	nthreads []int
	buf      [1024]byte
}

func openSched(pids []int) (*schedReader, error) {
	r := &schedReader{pids: pids, threads: make([][]int, len(pids)), nthreads: make([]int, len(pids))}
	for _, pid := range pids {
		fd, err := syscall.Open("/proc/"+strconv.Itoa(pid)+"/stat", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("open stat of pid %d: %w", pid, err)
		}
		r.stat = append(r.stat, fd)
	}
	for i := range pids {
		if err := r.rescan(i); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// rescan reopens the schedstat files of every current thread of PID i.
func (r *schedReader) rescan(i int) error {
	for _, fd := range r.threads[i] {
		_ = syscall.Close(fd)
	}
	r.threads[i] = r.threads[i][:0]
	dir := "/proc/" + strconv.Itoa(r.pids[i]) + "/task"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("list threads of pid %d: %w", r.pids[i], err)
	}
	for _, e := range ents {
		fd, err := syscall.Open(dir+"/"+e.Name()+"/schedstat", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != nil {
			continue // the thread exited meanwhile
		}
		r.threads[i] = append(r.threads[i], fd)
	}
	r.nthreads[i] = len(ents)
	return nil
}

// numThreads returns field 20 of /proc/<pid>/stat for PID i.
func (r *schedReader) numThreads(i int) (int, error) {
	n, err := syscall.Pread(r.stat[i], r.buf[:], 0)
	if err != nil {
		return 0, err
	}
	b := r.buf[:n]
	j := len(b) - 1
	for j >= 0 && b[j] != ')' {
		j--
	}
	// Fields after the comm start at field 3; num_threads is field 20.
	field := 2
	for j++; j < len(b); j++ {
		if b[j] == ' ' {
			field++
			continue
		}
		if field == 20 {
			return leadingInt(b[j:]), nil
		}
	}
	return 0, fmt.Errorf("short stat for pid %d", r.pids[i])
}

// read returns the CPU time of PID i in nanoseconds.
func (r *schedReader) read(i int) (int64, error) {
	nt, err := r.numThreads(i)
	if err != nil {
		return 0, err
	}
	if nt != r.nthreads[i] {
		if err := r.rescan(i); err != nil {
			return 0, err
		}
	}
	var total int64
	for _, fd := range r.threads[i] {
		n, err := syscall.Pread(fd, r.buf[:], 0)
		if err != nil {
			continue // the thread exited
		}
		total += int64(leadingInt(r.buf[:n]))
	}
	return total, nil
}

func leadingInt(b []byte) int {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int(c-'0')
	}
	return v
}

func (r *schedReader) close() {
	for _, fd := range r.stat {
		_ = syscall.Close(fd)
	}
	for _, fds := range r.threads {
		for _, fd := range fds {
			_ = syscall.Close(fd)
		}
	}
	r.stat, r.threads = nil, nil
}
