package rig

import (
	"errors"
	"net"
	"sync"
	"syscall"

	"github.com/dfi-sdn/dfi/internal/netpoll"
)

// Poller drains every passive socket of the rig — idle sessions, passive
// switch emulators and their controller-side peers — from one goroutine, so
// hundreds of held connections cost the load generator no goroutines and
// no scheduler work of their own.
type Poller struct {
	p  *netpoll.Poller
	wg sync.WaitGroup

	mu      sync.Mutex
	closing bool
	next    uint32
	socks   map[uint32]*polled
}

type polled struct {
	conn net.Conn // keeps the descriptor alive
	fd   int
	feed func(chunk []byte, now int64) error
}

func newPoller(now func() int64) (*Poller, error) {
	np, err := netpoll.New()
	if err != nil {
		return nil, err
	}
	p := &Poller{p: np, socks: map[uint32]*polled{}}
	p.wg.Add(1)
	go p.loop(now)
	return p, nil
}

// Add hands conn's read side to the poller: from now on feed receives
// every chunk that arrives on it, on the poller's goroutine.
func (p *Poller) Add(conn net.Conn, feed func(chunk []byte, now int64) error) error {
	fd, ok := netpoll.FD(conn)
	if !ok {
		return errors.New("rig: connection has no file descriptor")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next++
	p.socks[p.next] = &polled{conn: conn, fd: fd, feed: feed}
	return p.p.Add(fd, p.next, true, false)
}

func (p *Poller) loop(now func() int64) {
	defer p.wg.Done()
	events := make([]netpoll.Event, 128)
	buf := make([]byte, 64<<10)
	for {
		n, err := p.p.Wait(events)
		p.mu.Lock()
		closing := p.closing
		p.mu.Unlock()
		if err != nil || closing {
			return
		}
		for _, ev := range events[:n] {
			p.mu.Lock()
			s := p.socks[ev.Token]
			p.mu.Unlock()
			if s == nil {
				continue
			}
			if !p.drain(s, buf, now) {
				_ = p.p.Del(s.fd)
				p.mu.Lock()
				delete(p.socks, ev.Token)
				p.mu.Unlock()
			}
		}
	}
}

// drain reads s until it would block. It reports false once the socket is
// finished: end of stream, an error, or a feed that gave up.
func (p *Poller) drain(s *polled, buf []byte, now func() int64) bool {
	for {
		n, err := syscall.Read(s.fd, buf)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return true
		case err != nil || n == 0:
			return false
		}
		if s.feed(buf[:n], now()) != nil {
			return false
		}
	}
}

// Close stops the poller's goroutine and releases the epoll instance. The
// sockets themselves belong to whoever added them.
func (p *Poller) Close() {
	p.mu.Lock()
	p.closing = true
	p.mu.Unlock()
	_ = p.p.Wake()
	p.wg.Wait()
	_ = p.p.Close()
}
