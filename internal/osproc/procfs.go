// Package osproc is the real-operating-system substrate for ALPS: it
// drives the internal/core algorithm over actual processes using only
// unprivileged POSIX facilities, the production counterpart of the
// paper's FreeBSD implementation.
//
//   - CPU consumption and run state come from /proc/<pid>/stat (utime +
//     stime in USER_HZ ticks, and the single-letter state field — the
//     Linux analogue of getrusage plus the kernel "wait channel" the
//     paper reads). The 10 ms tick granularity matches what the paper's
//     accounting exposes.
//   - Eligibility transitions are enacted with SIGSTOP and SIGCONT via
//     kill(2).
//   - Per-user process enumeration (for §5-style resource principals)
//     scans /proc, the analogue of kvm_getprocs.
//
// Everything here requires a Linux /proc; the simulator in internal/sim
// provides the same interfaces for deterministic experiments.
package osproc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// ClockTick is the /proc accounting granularity (USER_HZ is 100 on all
// mainstream Linux configurations).
const ClockTick = 10 * time.Millisecond

// procRoot is the procfs mount point; tests point it at a fixture tree.
var procRoot = "/proc"

// Stat is the subset of /proc/<pid>/stat that ALPS needs.
type Stat struct {
	PID int
	// Comm is the executable name (without parentheses).
	Comm string
	// State is the kernel run state: 'R' running/runnable, 'S'
	// interruptible sleep, 'D' uninterruptible sleep, 'T' stopped,
	// 'Z' zombie, and friends.
	State byte
	// PPID is the parent process ID (for lineage tracking).
	PPID int
	// CPU is utime+stime converted to a duration (ClockTick units).
	CPU time.Duration
	// Start is the process start time (field 22, clock ticks since
	// boot). It uniquely identifies a process incarnation: if a PID's
	// start time changes, the kernel has recycled the PID for an
	// unrelated process, and any accounting baseline held for the old
	// incarnation is invalid.
	Start uint64
}

// Blocked reports whether the state indicates the process is waiting on
// an event — the condition the paper detects via the wait-channel field
// (§2.4). A stopped process is not "blocked" in this sense: ALPS itself
// put it there.
func (s Stat) Blocked() bool { return s.State == 'S' || s.State == 'D' }

// ReadStat parses /proc/<pid>/stat with a one-shot open, read and close.
// It holds no descriptor, which suits /proc scans (Descendants) and
// callers outside the control loop; RealSys.ReadStat is the loop's
// reader and keeps the file open between samples.
func ReadStat(pid int) (Stat, error) {
	f, err := os.Open(statPath(pid))
	if err != nil {
		return Stat{}, err
	}
	defer f.Close()
	return preadStat(f, pid)
}

func statPath(pid int) string { return procRoot + "/" + strconv.Itoa(pid) + "/stat" }

// statBufSize bounds one stat line. A Linux line has 52 fields of at most
// 20 digits each plus a comm of at most 64 bytes, about 1.2 KiB at worst.
const statBufSize = 2048

// statBufs recycles read buffers: a buffer handed to ReadAt escapes, so
// a stack array would cost one heap allocation per read.
var statBufs = sync.Pool{New: func() any { return new([statBufSize]byte) }}

// preadStat reads f from offset 0 with ReadAt (pread, so concurrent
// readers of one file need no shared position) and parses it in place.
func preadStat(f *os.File, pid int) (Stat, error) {
	buf := statBufs.Get().(*[statBufSize]byte)
	defer statBufs.Put(buf)
	n, err := f.ReadAt(buf[:], 0)
	switch {
	case err == nil:
		// ReadAt filled the buffer without reaching EOF.
		return Stat{}, fmt.Errorf("osproc: stat for pid %d exceeds %d bytes", pid, statBufSize)
	case err != io.EOF:
		return Stat{}, err
	}
	return parseStat(pid, buf[:n])
}

// maxCPUTicks keeps utime+stime, converted to a Duration, from overflowing.
const maxCPUTicks = uint64(math.MaxInt64 / int64(ClockTick))

// parseStat parses one stat line without copying it: it anchors on the
// last ')' because comm may contain spaces and parentheses, and allocates
// only Comm. The leading PID field must name pid, so a descriptor mix-up
// surfaces as an error rather than as another process's CPU.
func parseStat(pid int, raw []byte) (Stat, error) {
	open := bytes.IndexByte(raw, '(')
	close := bytes.LastIndexByte(raw, ')')
	if close < 0 || open < 0 || close < open {
		return Stat{}, fmt.Errorf("osproc: malformed stat for pid %d", pid)
	}
	if got, ok := parseDecimal(bytes.TrimSpace(raw[:open])); !ok || got != uint64(pid) {
		return Stat{}, fmt.Errorf("osproc: stat read for pid %d names pid %q", pid, bytes.TrimSpace(raw[:open]))
	}
	st := Stat{PID: pid, Comm: string(raw[open+1 : close])}
	// Field k of the line (1-based) is field k-3 after the comm: state is
	// field 3, ppid 4, utime 14, stime 15 and starttime 22.
	var ut, stt uint64
	rest := raw[close+1:]
	i := 0
	for ; i <= 19; i++ {
		var f []byte
		if f, rest = nextField(rest); f == nil {
			break
		}
		var ok bool
		switch i {
		case 0:
			st.State, ok = f[0], true
		case 1:
			var ppid uint64
			ppid, ok = parseDecimal(f)
			st.PPID = int(ppid)
		case 11:
			ut, ok = parseDecimal(f)
		case 12:
			stt, ok = parseDecimal(f)
			ok = ok && ut <= maxCPUTicks && stt <= maxCPUTicks-ut
		case 19:
			st.Start, ok = parseDecimal(f)
		default:
			ok = true
		}
		if !ok {
			return Stat{}, fmt.Errorf("osproc: bad stat field %d %q for pid %d", i+3, f, pid)
		}
	}
	// Real kernels always emit 52 fields; tolerate short fixture lines
	// that stop after stime by leaving Start zero.
	if i < 13 {
		return Stat{}, fmt.Errorf("osproc: short stat for pid %d", pid)
	}
	st.CPU = time.Duration(ut+stt) * ClockTick
	return st, nil
}

// nextField splits the first whitespace-separated field off b; it returns
// a nil field when b holds no more fields.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	if i == j {
		return nil, nil
	}
	return b[i:j], b[j:]
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseDecimal parses an unsigned decimal; it rejects empty input, any
// non-digit, and overflow.
func parseDecimal(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// statFiles is the process-wide table of open /proc/<pid>/stat files
// behind RealSys.ReadStat, so the zero RealSys carries it. It is a cache:
// a missing entry costs one open, and no decision depends on what it
// holds. The mutex covers lookup, insert and delete, never a read. Entries
// are *os.File rather than raw descriptors because os.File counts
// references to its descriptor: a read racing Forget's Close fails with
// os.ErrClosed (transient, so the retry reopens) instead of reading
// whatever file reused the number.
//
// A held file stays bound to the process it was opened on. Once that
// process is reaped its reads fail ESRCH, and ReadStat drops the entry, so
// a recycled PID is never read through a stale file.
var statFiles = struct {
	sync.Mutex
	m map[int]*os.File
}{m: make(map[int]*os.File)}

// statFileCap bounds statFiles at half the soft RLIMIT_NOFILE, read once
// at start-up, leaving the other half to the rest of the process. Reads
// past the cap open, read and close.
var statFileCap = nofileBudget()

func nofileBudget() int {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 0
	}
	return int(min(rl.Cur/2, math.MaxInt32))
}

// readHeldStat is RealSys.ReadStat: one pread on the PID's held file,
// opening (and, within the cap, holding) it on first use.
func readHeldStat(pid int) (Stat, error) {
	statFiles.Lock()
	f := statFiles.m[pid]
	statFiles.Unlock()
	if f != nil {
		st, err := preadStat(f, pid)
		if err != nil {
			dropStatFile(pid, f)
		}
		return st, err
	}
	path := statPath(pid)
	f, err := os.Open(path)
	starved := errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE)
	if starved && evictStatFile() {
		// Out of descriptors: give one held file back and read this PID
		// one-shot, so descriptor pressure costs opens, never a charge.
		f, err = os.Open(path)
	}
	if err != nil {
		return Stat{}, err
	}
	st, err := preadStat(f, pid)
	held := false
	if err == nil && !starved {
		statFiles.Lock()
		if _, dup := statFiles.m[pid]; !dup && len(statFiles.m) < statFileCap {
			statFiles.m[pid] = f
			held = true
		}
		statFiles.Unlock()
	}
	if !held {
		f.Close()
	}
	return st, err
}

// dropStatFile removes pid's entry if it is still f, and closes f. Any
// read error drops the entry: ESRCH means the process was reaped, and
// anything else is cheaper to retry on a fresh open.
func dropStatFile(pid int, f *os.File) {
	statFiles.Lock()
	if statFiles.m[pid] == f {
		delete(statFiles.m, pid)
	}
	statFiles.Unlock()
	f.Close()
}

// forgetStatFile closes pid's held file, if any.
func forgetStatFile(pid int) {
	statFiles.Lock()
	f, ok := statFiles.m[pid]
	delete(statFiles.m, pid)
	statFiles.Unlock()
	if ok {
		f.Close()
	}
}

// evictStatFile closes one held file, reporting whether there was one.
func evictStatFile() bool {
	statFiles.Lock()
	var f *os.File
	for pid, g := range statFiles.m {
		f = g
		delete(statFiles.m, pid)
		break
	}
	statFiles.Unlock()
	if f == nil {
		return false
	}
	f.Close()
	return true
}

// Descendants returns root plus every live process whose ancestry chain
// leads to root, by scanning /proc ppids — the mechanism that lets ALPS
// follow a prefork server like Apache as it grows and shrinks its worker
// pool (§5 of the paper tracks processes by user; this tracks them by
// lineage, useful when the workload doesn't run as its own user).
func Descendants(root int) ([]int, error) {
	entries, err := os.ReadDir(procRoot)
	if err != nil {
		return nil, err
	}
	parent := make(map[int]int)
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		st, err := ReadStat(pid)
		if err != nil || st.State == 'Z' {
			continue
		}
		parent[pid] = st.PPID
	}
	var out []int
	for pid := range parent {
		p := pid
		for depth := 0; depth < 128; depth++ {
			if p == root {
				out = append(out, pid)
				break
			}
			next, ok := parent[p]
			if !ok || next == p {
				break
			}
			p = next
		}
	}
	sortInts(out)
	return out, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Stop suspends a process (SIGSTOP cannot be caught or ignored).
func Stop(pid int) error { return syscall.Kill(pid, syscall.SIGSTOP) }

// Cont resumes a stopped process.
func Cont(pid int) error { return syscall.Kill(pid, syscall.SIGCONT) }

// StopGroup suspends an entire process group with a single syscall:
// kill(2) with a negative PID signals every member of the group. The
// call succeeds if at least one member was signalled.
func StopGroup(pgid int) error { return syscall.Kill(-pgid, syscall.SIGSTOP) }

// ContGroup resumes an entire process group with a single syscall.
func ContGroup(pgid int) error { return syscall.Kill(-pgid, syscall.SIGCONT) }

// Pgid returns the process-group ID of pid (getpgid(2)).
func Pgid(pid int) (int, error) { return syscall.Getpgid(pid) }

// Alive reports whether the process exists (signal 0 probe).
func Alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

// PidsOfUser returns the live PIDs owned by uid, by scanning /proc — the
// Linux analogue of the kvm_getprocs call the paper's §5 ALPS uses to
// refresh a resource principal's membership once per second.
func PidsOfUser(uid uint32) ([]int, error) {
	entries, err := os.ReadDir(procRoot)
	if err != nil {
		return nil, err
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		sys, ok := info.Sys().(*syscall.Stat_t)
		if !ok || sys.Uid != uid {
			continue
		}
		pids = append(pids, pid)
	}
	return pids, nil
}
