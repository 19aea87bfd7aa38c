//go:build linux

package netpoll

import (
	"sync"
	"syscall"
)

// Poller is a level-triggered epoll instance plus a non-blocking wake pipe.
// Add/Mod/Del/Wake are safe for concurrent use from any goroutine; Wait
// must be called from a single goroutine (the poller's owning loop).
type Poller struct {
	epfd int
	// wake pipe: writing one byte to wakeW interrupts a blocked Wait.
	wakeR, wakeW int
	// raw is the kernel-side event buffer, owned by the Wait goroutine and
	// reused across calls so the worker loop stays allocation-free.
	raw []syscall.EpollEvent

	mu     sync.Mutex
	closed bool
}

// New creates a poller. On non-linux platforms it returns ErrUnsupported.
func New() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipefd [2]int
	if err := syscall.Pipe2(pipefd[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	p := &Poller{epfd: epfd, wakeR: pipefd[0], wakeW: pipefd[1]}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN}
	setToken(&ev, wakeToken)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// interest builds the epoll event mask. EPOLLRDHUP is always requested so
// an orderly peer shutdown surfaces as Hangup even with reads paused.
func interest(readable, writable bool) uint32 {
	events := uint32(syscall.EPOLLRDHUP)
	if readable {
		events |= syscall.EPOLLIN
	}
	if writable {
		events |= syscall.EPOLLOUT
	}
	return events
}

// setToken stashes the caller token in the event's user-data pad.
func setToken(ev *syscall.EpollEvent, token uint32) {
	ev.Fd = int32(token)
}

// Add registers fd with the given interest set.
func (p *Poller) Add(fd int, token uint32, readable, writable bool) error {
	ev := syscall.EpollEvent{Events: interest(readable, writable)}
	setToken(&ev, token)
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

// Mod replaces fd's interest set.
func (p *Poller) Mod(fd int, token uint32, readable, writable bool) error {
	ev := syscall.EpollEvent{Events: interest(readable, writable)}
	setToken(&ev, token)
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

// Del removes fd. Removing an fd that was closed (and therefore already
// auto-removed) reports the syscall error; callers may ignore it.
func (p *Poller) Del(fd int) error {
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
}

// Wake interrupts a blocked Wait. Coalesces: multiple Wakes before the
// worker drains the pipe produce one (or few) wake events.
func (p *Poller) Wake() error {
	var b [1]byte
	_, err := syscall.Write(p.wakeW, b[:])
	if err == syscall.EAGAIN {
		// Pipe already full: a wake is pending, which is all we need.
		return nil
	}
	return err
}

// Wait blocks until at least one registered fd is ready (or a Wake), then
// fills events and returns the count. A woken Wait may return 0 events.
// Wait must only be called from one goroutine.
func (p *Poller) Wait(events []Event) (int, error) {
	if cap(p.raw) < len(events) {
		p.raw = make([]syscall.EpollEvent, len(events))
	}
	raw := p.raw[:len(events)]
	for {
		n, err := syscall.EpollWait(p.epfd, raw, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, err
		}
		out := 0
		woken := false
		for i := 0; i < n; i++ {
			ev := &raw[i]
			token := uint32(ev.Fd)
			if token == wakeToken {
				woken = true
				continue
			}
			events[out] = Event{
				Token:    token,
				Readable: ev.Events&(syscall.EPOLLIN|syscall.EPOLLPRI) != 0,
				Writable: ev.Events&syscall.EPOLLOUT != 0,
				Hangup:   ev.Events&(syscall.EPOLLHUP|syscall.EPOLLRDHUP|syscall.EPOLLERR) != 0,
			}
			out++
		}
		if woken {
			p.drainWake()
		}
		return out, nil
	}
}

// drainWake empties the wake pipe so the next Wait blocks again.
func (p *Poller) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(p.wakeR, buf[:])
		if n < len(buf) || err != nil {
			return
		}
	}
}

// Close releases the epoll instance and wake pipe. Concurrent Waits return
// an error once their fds close.
func (p *Poller) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	syscall.Close(p.wakeW)
	syscall.Close(p.wakeR)
	return syscall.Close(p.epfd)
}
