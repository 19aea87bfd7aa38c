//go:build !linux

package netpoll

// Poller is unavailable on this platform; New reports ErrUnsupported and
// every method panics if reached (callers never register fds without a
// poller).
type Poller struct{}

// New reports ErrUnsupported: callers use their portable fallback.
func New() (*Poller, error) { return nil, ErrUnsupported }

func (p *Poller) Add(fd int, token uint32, readable, writable bool) error {
	panic("netpoll: no poller")
}

func (p *Poller) Mod(fd int, token uint32, readable, writable bool) error {
	panic("netpoll: no poller")
}

func (p *Poller) Del(fd int) error                 { panic("netpoll: no poller") }
func (p *Poller) Wake() error                      { panic("netpoll: no poller") }
func (p *Poller) Wait(events []Event) (int, error) { panic("netpoll: no poller") }
func (p *Poller) Close() error                     { return nil }
