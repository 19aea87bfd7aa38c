package rig

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// On the virtual machines this benchmark runs on, an idle vCPU halts, and
// waking it costs a trip through the hypervisor: 30µs and more, several
// times per request at the fixed rates used here, and varying by the second
// with what else the host is doing. Left alone, that wake-up cost is most
// of the latency an open loop measures and nearly all of its run-to-run
// spread. The keeper removes it, the way booting with idle=poll would: one
// child process per CPU spins at SCHED_IDLE priority while a fixed-rate
// phase runs, so no CPU halts, and any runnable thread of dfid or of the
// load generator preempts the spinner at once. What is left in the latency
// is the software path.
//
// The children are this same executable, started with spinEnv set: a
// program that sets up a rig calls SpinIfChild first thing in main (or
// TestMain). A run either has every spinner in place or fails: numbers
// taken with and without them are not of one kind.

const (
	spinEnv    = "DFI_BENCH_SPIN_CPU"
	schedIdle  = 5 // SCHED_IDLE
	maxSpinCPU = 8
	spinReady  = 'r' // what a child writes once it is pinned and at idle priority
)

// SpinIfChild turns the process into a spinner, never to return, when a
// keeper started it as one; otherwise it does nothing.
func SpinIfChild() {
	if n, err := strconv.Atoi(os.Getenv(spinEnv)); err == nil {
		spin(n)
	}
}

// spin is the child: it pins itself to the n-th CPU it may run on, drops to
// idle priority, says so on its standard output and spins whenever its
// standard input last said '1', until that closes.
func spin(n int) {
	var on atomic.Bool
	go func() {
		b := make([]byte, 1)
		for {
			if n, err := os.Stdin.Read(b); err != nil || n == 0 {
				os.Exit(0) // the parent is gone, or done
			}
			on.Store(b[0] == '1')
		}
	}()
	runtime.LockOSThread()
	var allowed [16]uint64 // 1,024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		os.Exit(1)
	}
	var mask [16]uint64
	for cpu, seen := 0, 0; ; cpu++ {
		if cpu == 64*len(allowed) {
			os.Exit(1)
		}
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		if seen == n {
			mask[cpu/64] = 1 << (cpu % 64)
			break
		}
		seen++
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		os.Exit(1)
	}
	var prio int32 // struct sched_param{0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		os.Exit(1) // a spinner at normal priority would steal what it is meant to protect
	}
	if _, err := os.Stdout.Write([]byte{spinReady}); err != nil {
		os.Exit(1)
	}
	for {
		for on.Load() {
		}
		time.Sleep(time.Millisecond)
	}
}

// keeper owns the spinner children.
type keeper struct {
	cmds  []*exec.Cmd
	pipes []io.WriteCloser
}

// startKeeper starts one paused spinner per CPU and waits until each has
// said it is pinned and at idle priority.
func startKeeper() (*keeper, error) {
	k := &keeper{}
	self, err := os.Executable()
	if err != nil {
		return k, err
	}
	for n := 0; n < min(runtime.NumCPU(), maxSpinCPU); n++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), spinEnv+"="+strconv.Itoa(n))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		in, err := cmd.StdinPipe()
		if err != nil {
			return k, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return k, err
		}
		if err := cmd.Start(); err != nil {
			return k, fmt.Errorf("spinner %d: %w", n, err)
		}
		k.cmds, k.pipes = append(k.cmds, cmd), append(k.pipes, in)
		ack := make([]byte, 1)
		if _, err := io.ReadFull(out, ack); err != nil || ack[0] != spinReady {
			return k, fmt.Errorf("spinner %d did not start (no CPU to pin to, SCHED_IDLE refused, or SpinIfChild not called): %v", n, err)
		}
	}
	return k, nil
}

// set starts or pauses the spinning. A spinner that has died fails it.
func (k *keeper) set(on bool) error {
	b := []byte{'0'}
	if on {
		b[0] = '1'
	}
	var errs []error
	for n, p := range k.pipes {
		if _, err := p.Write(b); err != nil {
			errs = append(errs, fmt.Errorf("spinner %d is gone: %w", n, err))
		}
	}
	return errors.Join(errs...)
}

// close ends the children and waits for them.
func (k *keeper) close() {
	for i, cmd := range k.cmds {
		k.pipes[i].Close()
		_ = cmd.Process.Kill() // a spinner leaves when its input closes; anything else must not be waited for
		_ = cmd.Wait()
	}
	k.cmds, k.pipes = nil, nil
}
