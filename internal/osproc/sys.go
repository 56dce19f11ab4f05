package osproc

import "time"

// Sys is the operating-system surface the Runner depends on: reading a
// process's accounting state, delivering the two job-control signals, and
// enumerating a user's processes. The production implementation (RealSys)
// forwards to /proc and kill(2); FaultSys is a scriptable fake that
// injects the failure modes a live system exhibits — vanished PIDs, PID
// reuse, EPERM, /proc read races, slow reads — so every failure path in
// the control loop is unit-testable without spawning a single process.
type Sys interface {
	// ReadStat returns the accounting snapshot for pid
	// (/proc/<pid>/stat on Linux).
	ReadStat(pid int) (Stat, error)
	// Forget tells the surface the runner dropped pid's accounting
	// baseline, so it may release anything it holds for pid (RealSys
	// closes the PID's held stat file). It is never an error: a later
	// ReadStat of the same PID simply starts afresh.
	Forget(pid int)
	// Stop suspends pid (SIGSTOP).
	Stop(pid int) error
	// Cont resumes pid (SIGCONT).
	Cont(pid int) error
	// StopGroup suspends every member of process group pgid with one
	// kill(-pgid, SIGSTOP). POSIX aggregate semantics: success means at
	// least one member was signalled; ESRCH means no member exists;
	// EPERM means members exist but none could be signalled.
	StopGroup(pgid int) error
	// ContGroup resumes every member of process group pgid
	// (kill(-pgid, SIGCONT)), with the same aggregate semantics.
	ContGroup(pgid int) error
	// Pgid returns pid's process-group ID (getpgid(2)); the runner uses
	// it to verify a claimed group before trusting one-syscall group
	// signalling.
	Pgid(pid int) (int, error)
	// PidsOfUser enumerates the live PIDs owned by uid.
	PidsOfUser(uid uint32) ([]int, error)
	// Sleep pauses the calling goroutine, used for the capped retry
	// backoff between signal attempts. Fakes advance a virtual clock
	// instead so fault tests run in microseconds.
	Sleep(d time.Duration)
}

// RealSys is the production Sys over /proc and kill(2). The zero value is
// ready to use: its stat files live in the process-wide statFiles table.
type RealSys struct{}

// ReadStat parses /proc/<pid>/stat with one pread on a file held open
// across samples (see statFiles).
func (RealSys) ReadStat(pid int) (Stat, error) { return readHeldStat(pid) }

// Forget closes pid's held stat file.
func (RealSys) Forget(pid int) { forgetStatFile(pid) }

// Stop sends SIGSTOP.
func (RealSys) Stop(pid int) error { return Stop(pid) }

// Cont sends SIGCONT.
func (RealSys) Cont(pid int) error { return Cont(pid) }

// StopGroup sends SIGSTOP to the whole process group.
func (RealSys) StopGroup(pgid int) error { return StopGroup(pgid) }

// ContGroup sends SIGCONT to the whole process group.
func (RealSys) ContGroup(pgid int) error { return ContGroup(pgid) }

// Pgid is getpgid(2).
func (RealSys) Pgid(pid int) (int, error) { return Pgid(pid) }

// PidsOfUser scans /proc for processes owned by uid.
func (RealSys) PidsOfUser(uid uint32) ([]int, error) { return PidsOfUser(uid) }

// Sleep is time.Sleep.
func (RealSys) Sleep(d time.Duration) { time.Sleep(d) }
