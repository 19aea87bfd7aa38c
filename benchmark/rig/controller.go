package rig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/internal/openflow"
)

// Controller is the SDN controller stub dfid dials once per switch. For a
// relayed packet-in it answers with a flow-mod and a packet-out; for an
// admitted table-0 packet-in it only checks that the oracle allowed the
// flow: a denied packet reaching the controller is the failure the paper's
// invariant forbids.
type Controller struct {
	rig *Rig
	lis net.Listener
	wg  sync.WaitGroup

	mu       sync.Mutex
	expected map[uint64]*Switch
	sessions map[uint64]chan struct{}
	conns    []net.Conn

	// DeniedSeen counts admitted packet-ins the generator tagged as denied
	// by the oracle; RelayWrong counts relayed packet-ins that arrived with
	// an unshifted table id.
	DeniedSeen atomic.Int64
	RelayWrong atomic.Int64

	smu   sync.Mutex
	spans []Span
}

func newController(r *Rig) (*Controller, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &Controller{rig: r, lis: lis, expected: map[uint64]*Switch{}, sessions: map[uint64]chan struct{}{}}
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

// Addr is the address dfid dials.
func (c *Controller) Addr() string { return c.lis.Addr().String() }

// expect registers the switch emulator whose session is about to arrive.
func (c *Controller) expect(s *Switch) {
	c.mu.Lock()
	c.expected[s.DPID] = s
	c.sessions[s.DPID] = make(chan struct{})
	c.mu.Unlock()
}

// awaitSession blocks until the stub has completed the handshake for dpid.
func (c *Controller) awaitSession(dpid uint64, d time.Duration) error {
	c.mu.Lock()
	ch := c.sessions[dpid]
	c.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(d):
		return fmt.Errorf("controller stub: no session for switch %#x after %v", dpid, d)
	}
}

func (c *Controller) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.lis.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.conns = append(c.conns, conn)
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// ctlConn is the stub's side of one switch session.
type ctlConn struct {
	c    *Controller
	conn net.Conn
	acc  openflow.Accumulator
	peer *Switch // set once the FEATURES_REPLY names the datapath
	out  []byte
	// spans are owned by the goroutine feeding this connection.
	spans []Span
}

// serve runs the handshake and, for a load switch, the session; a passive
// session is handed to the poller so it holds no goroutine.
func (c *Controller) serve(conn net.Conn) {
	defer c.wg.Done()
	cc := &ctlConn{c: c, conn: conn}
	hello, _ := openflow.Encode(1, &openflow.Hello{})
	hello, _ = openflow.AppendMessage(hello, 2, &openflow.FeaturesRequest{})
	if _, err := conn.Write(hello); err != nil {
		return
	}
	buf := make([]byte, 256<<10)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			hadPeer := cc.peer != nil
			if cc.feed(buf[:n], c.rig.now()) != nil {
				return
			}
			if !hadPeer && cc.peer != nil && cc.peer.load == nil {
				if c.rig.poller.Add(conn, cc.feed) != nil {
					conn.Close()
				}
				return
			}
		}
		if err != nil {
			c.collect(cc)
			return
		}
	}
}

// collect keeps a finished load session's spans for the trace file.
func (c *Controller) collect(cc *ctlConn) {
	c.smu.Lock()
	c.spans = append(c.spans, cc.spans...)
	c.smu.Unlock()
}

// TakeSpans returns the spans recorded so far. Call it after Close, when
// no session is writing any.
func (c *Controller) TakeSpans() []Span {
	c.smu.Lock()
	defer c.smu.Unlock()
	out := c.spans
	c.spans = nil
	return out
}

var errUnknownDatapath = errors.New("controller stub: session from an unknown datapath")

func (cc *ctlConn) feed(chunk []byte, now int64) error {
	c := cc.c
	err := cc.acc.Feed(chunk, func(f *openflow.Frame) error {
		switch f.Type() {
		case openflow.TypeFeaturesReply:
			if len(f.Body()) < 8 {
				return errUnknownDatapath
			}
			dpid := binary.BigEndian.Uint64(f.Body())
			c.mu.Lock()
			cc.peer = c.expected[dpid]
			ch := c.sessions[dpid]
			c.mu.Unlock()
			if cc.peer == nil {
				return errUnknownDatapath
			}
			close(ch)
		case openflow.TypePacketIn:
			cc.onPacketIn(f.Bytes(), now)
		}
		return nil
	})
	if len(cc.out) > 0 && err == nil {
		_, err = cc.conn.Write(cc.out)
		cc.out = cc.out[:0]
	}
	return err
}

func (cc *ctlConn) onPacketIn(frame []byte, now int64) {
	c := cc.c
	tag, payload, ok := packetInTag(frame, c.rig.piSmall.dataOff)
	if !ok || cc.peer == nil {
		return
	}
	xid := binary.BigEndian.Uint32(frame[4:8])
	switch tag {
	case TagRelay:
		if frame[ofHeaderLen+7] != 0 {
			c.RelayWrong.Add(1) // the proxy did not shift the table id down
		}
		cc.out = c.rig.reply.append(cc.out, xid, payload)
	case TagExpectDeny:
		c.DeniedSeen.Add(1)
	}
	if l := cc.peer.load; l != nil && cc.peer.tracing.Load() && xid < probeXID && len(cc.spans) < maxSpans {
		// Spans of one request share its id: the transaction id for a
		// relayed packet-in, the source port for an admitted one (the
		// switch side never sees the transaction id of its verdict).
		idx, req := slotOf(xid), xid
		if !cc.peer.relay {
			idx = int(binary.BigEndian.Uint16(payload[offTCPSrc:]))
			req = uint32(idx)
		}
		if due := l.traceDue[idx].Load(); due != 0 {
			cc.spans = append(cc.spans, Span{Name: "hop.sw_to_ctl_us", Parent: "hop.sw_to_flowmod_us", Switch: cc.peer.DPID, Req: req, StartNs: due, EndNs: now})
		}
		if tag == TagRelay {
			l.ctlReplyAt[idx].Store(now)
		}
	}
}

// Close stops accepting, closes every session and waits for the stub's
// goroutines.
func (c *Controller) Close() {
	c.lis.Close()
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}
