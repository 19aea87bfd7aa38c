package rig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/benchmark/gen"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

const (
	// slotBase and slotMod place a load request's TCP source port, and with
	// it the index of its pending slot, in [slotBase, slotBase+slotMod).
	// slotMod is prime, so a flow list never falls into step with the
	// source ports and a cold sequence does not repeat within a run.
	slotBase = 1024
	slotMod  = 60013
	numSlots = 1 << 16

	// probeBase is the source port of probe 0; probes stay below slotBase.
	probeBase = 64
	probeXID  = 0xF0000000

	// ReplyTimeout is how long a request may stay unanswered, or a probe
	// entry outlive its revocation, before it counts as failed. It is long
	// enough to outlast a stall of the host itself (one run in forty of the
	// audits saw every socket go quiet for 1.3 s at once); a slow reply is
	// still charged to the latency metrics in full.
	ReplyTimeout = 5 * time.Second

	// satWindowMax bounds how many pending slots a sender passes over before
	// it waits for replies.
	satWindowMax = 256
)

// LoadFlow is one flow a load connection replays, resolved to hosts.
type LoadFlow struct {
	Src, Dst *gen.Host
	InPort   uint32
	DPort    uint16
	Allow    bool
}

// Span is one boundary span recorded by the emulators while tracing: a
// name, the request it belongs to and two instants on the rig clock.
// Parent names the span that caused it ("" for a root).
type Span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Switch  uint64 `json:"switch"`
	Req     uint32 `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds what one socket records, so trace.json stays readable.
const maxSpans = 20000

// loadState is the pending-request bookkeeping of a load connection. The
// sender owns a slot until it publishes it with a store; the receiver
// takes it back with a swap.
type loadState struct {
	// slots hold due<<1|allow for a pending request, 0 when free.
	slots       [numSlots]atomic.Int64
	outstanding atomic.Int64
	wake        chan struct{} // receiver → closed-loop sender, capacity 1

	sendBuf []byte // the sender's, kept from phase to phase

	// Receiver-owned result of the running phase.
	lat       []int64
	wrong     atomic.Int64
	stray     atomic.Int64
	pktOuts   atomic.Int64
	completed atomic.Int64

	// Written while tracing only.
	traceDue   [numSlots]atomic.Int64
	ctlReplyAt [numSlots]atomic.Int64
}

// probeEntry is a table-0 entry an emulator holds for a probe flow.
type probeEntry struct {
	present   bool
	allow     bool
	cookie    uint64
	m         match
	addedAt   int64
	removedAt int64
}

// Switch is one emulated switch connection to dfid. A load switch has a
// sender (Run) and a receiver goroutine of its own; a passive one is read
// by the rig's poller. Both install nothing but probe entries: table 0 is
// modelled only as far as revocation needs it.
type Switch struct {
	DPID uint64
	rig  *Rig
	conn net.Conn
	wmu  sync.Mutex // guards writes to conn
	acc  openflow.Accumulator

	featuresSent atomic.Bool
	load         *loadState // nil for a passive switch
	relay        bool       // load ops are relayed table-1 packet-ins

	pmu    sync.Mutex
	probes [gen.NumProbes]probeEntry

	tracing atomic.Bool
	spans   []Span // receiver-owned
	rxErr   atomic.Value
}

// now is the rig clock: nanoseconds since the rig was created.
func (r *Rig) now() int64 { return int64(time.Since(r.base)) }

// Now is the rig clock as a duration since the rig was created.
func (r *Rig) Now() time.Duration { return time.Since(r.base) }

// InPort is the port host h is seen on, at every switch: a packet crosses
// several switches on its path and each reports its own ingress.
func InPort(hostIndex int) uint32 { return uint32(hostIndex) + 1 }

// dialSwitch connects one emulated switch and completes the OpenFlow
// handshake through dfid with the controller stub behind it.
func (r *Rig) dialSwitch(dpid uint64, load, relay bool) (*Switch, error) {
	conn, err := net.DialTimeout("tcp", r.Dfid.ListenAddr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("switch %#x: %w", dpid, err)
	}
	s := &Switch{DPID: dpid, rig: r, conn: conn, relay: relay}
	if load {
		s.load = &loadState{wake: make(chan struct{}, 1), sendBuf: make([]byte, 0, 64<<10), lat: make([]int64, 0, 1<<16)}
	}
	r.Ctl.expect(s)
	hello, _ := openflow.Encode(1, &openflow.Hello{})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	// The controller's FEATURES_REQUEST arrives through the proxy; answer
	// it and wait until the stub has seen the reply, so the session is up
	// on both sides before anything is measured.
	buf := make([]byte, 4096)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for !s.featuresSent.Load() {
		n, err := conn.Read(buf)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("switch %#x handshake: %w", dpid, err)
		}
		if err := s.feed(buf[:n], r.now()); err != nil {
			conn.Close()
			return nil, err
		}
	}
	_ = conn.SetReadDeadline(time.Time{})
	if err := r.Ctl.awaitSession(dpid, 5*time.Second); err != nil {
		conn.Close()
		return nil, err
	}
	if load {
		r.rxWG.Add(1)
		go s.receive()
	} else if err := r.poller.Add(conn, s.feed); err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// receive is a load connection's receiver.
func (s *Switch) receive() {
	defer s.rig.rxWG.Done()
	buf := make([]byte, 256<<10)
	for {
		n, err := s.conn.Read(buf)
		if n > 0 {
			if ferr := s.feed(buf[:n], s.rig.now()); ferr != nil && err == nil {
				err = ferr
			}
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.rxErr.Store(err)
			}
			return
		}
	}
}

// feed hands one chunk of the byte stream, read at instant now, to the
// frame handlers. It is called from exactly one goroutine per switch.
func (s *Switch) feed(chunk []byte, now int64) error {
	done := int64(0)
	err := s.acc.Feed(chunk, func(f *openflow.Frame) error {
		switch f.Type() {
		case openflow.TypeFlowMod:
			done += s.onFlowMod(f.Bytes(), now)
		case openflow.TypePacketOut:
			if s.load != nil {
				s.load.pktOuts.Add(1)
			}
		case openflow.TypeFeaturesRequest:
			reply, err := openflow.Encode(f.XID(), &openflow.FeaturesReply{DatapathID: s.DPID, NumBuffers: 0, NumTables: 8})
			if err != nil {
				return err
			}
			if err := s.write(reply); err != nil {
				return err
			}
			s.featuresSent.Store(true)
		case openflow.TypeEchoRequest:
			reply := append([]byte(nil), f.Bytes()...)
			reply[1] = byte(openflow.TypeEchoReply)
			return s.write(reply)
		}
		return nil
	})
	if done > 0 {
		s.load.completed.Add(done)
		s.load.outstanding.Add(-done)
		select {
		case s.load.wake <- struct{}{}:
		default:
		}
	}
	return err
}

func (s *Switch) write(b []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, err := s.conn.Write(b)
	return err
}

// onFlowMod handles one flow-mod and returns how many load requests it
// completed.
func (s *Switch) onFlowMod(frame []byte, now int64) int64 {
	fm, ok := parseFlowMod(frame)
	if !ok {
		s.strayReply()
		return 0
	}
	if fm.tableID != 0 {
		// The controller's table space starts at 1 on the switch: this is
		// the stub's reply to a relayed packet-in, shifted by the proxy.
		if s.load == nil || !s.relay || fm.tableID != 1 {
			s.strayReply()
			return 0
		}
		xid := binary.BigEndian.Uint32(frame[4:8])
		return s.complete(slotOf(xid), xid, now, false)
	}
	switch fm.command {
	case openflow.FlowModAdd:
		port := fm.match.tcpSrc
		switch {
		case !fm.match.has(oxmTCPSrc):
			s.strayReply()
		case port >= probeBase && port < probeBase+gen.NumProbes:
			s.pmu.Lock()
			s.probes[port-probeBase] = probeEntry{present: true, allow: fm.hasInstructions, cookie: fm.cookie, m: fm.match, addedAt: now}
			s.pmu.Unlock()
			s.rig.probeEvent()
		case port >= slotBase && s.load != nil && !s.relay:
			return s.complete(int(port), 0, now, fm.hasInstructions)
		default:
			s.strayReply()
		}
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		hit := false
		s.pmu.Lock()
		for i := range s.probes {
			e := &s.probes[i]
			if e.present && (fm.cookieMask == 0 || e.cookie&fm.cookieMask == fm.cookie&fm.cookieMask) && fm.match.covers(&e.m) {
				e.present, e.removedAt, hit = false, now, true
			}
		}
		s.pmu.Unlock()
		if hit {
			s.rig.probeEvent()
		}
	}
	return 0
}

func slotOf(seq uint32) int { return slotBase + int(seq%slotMod) }

// SlotPort is the TCP source port, and pending-slot index, of load request
// seq: distinct for slotMod consecutive requests.
func SlotPort(seq uint32) uint16 { return uint16(slotOf(seq)) }

// complete closes the pending request in slot idx.
func (s *Switch) complete(idx int, xid uint32, now int64, gotAllow bool) int64 {
	l := s.load
	v := l.slots[idx].Swap(0)
	if v == 0 {
		l.stray.Add(1)
		return 0
	}
	due := v >> 1
	if !s.relay && (v&1 == 1) != gotAllow {
		l.wrong.Add(1)
	}
	l.lat = append(l.lat, now-due)
	if s.tracing.Load() && len(s.spans) < maxSpans {
		req := xid
		if !s.relay {
			req = uint32(idx)
		}
		s.spans = append(s.spans, Span{Name: "hop.sw_to_flowmod_us", Switch: s.DPID, Req: req, StartNs: due, EndNs: now})
		if at := l.ctlReplyAt[idx].Swap(0); s.relay && at != 0 {
			s.spans = append(s.spans, Span{Name: "hop.ctl_reply_to_sw_us", Parent: "hop.sw_to_flowmod_us", Switch: s.DPID, Req: req, StartNs: at, EndNs: now})
		}
	}
	return 1
}

func (s *Switch) strayReply() {
	if s.load != nil {
		s.load.stray.Add(1)
	}
}

// Phase describes one timed stretch of load on a connection.
type Phase struct {
	// Rate is the connection's open-loop send rate in requests per second;
	// 0 selects a closed loop of Window outstanding requests.
	Rate     float64
	Window   int
	Duration time.Duration
	// Count, when positive, ends a closed loop after that many requests.
	Count int64
	// Start, when set, is the rig-clock instant the phase begins at: the
	// connections of one open loop share it, so Offset staggers them over one
	// interval exactly and their relative timing is the same in every phase.
	Start time.Duration
	// Offset staggers the connections of an open loop over one interval.
	Offset time.Duration
	// Large reports whether request seq carries a large payload.
	Large func(seq uint32) bool
	// Next returns the flow for request seq and its TCP source port;
	// unused by relay connections.
	Next func(seq uint32) (*LoadFlow, uint16)
	// Trace records boundary spans during the phase.
	Trace bool
}

// PhaseResult is what one connection measured in one phase.
type PhaseResult struct {
	Sent, Completed int64
	// InTime counts the requests completed before the sender stopped: what
	// a saturation window's rate is made of. Completed adds those answered
	// while the phase drained.
	InTime int64
	// Wrong counts verdicts that disagree with the oracle, Lost requests
	// unanswered within ReplyTimeout, Stray replies matching no request.
	Wrong, Lost, Stray int64
	PacketOuts         int64
	Elapsed            time.Duration
	LatNs              []int64
	LateNs             []int64 // open loop: how late each send ran
	Spans              []Span
}

// Run drives one phase from the calling goroutine and returns once every
// request it sent is answered or has timed out. seq continues from the
// previous phase so cold sequences do not restart.
func (s *Switch) Run(p Phase, seq *uint32) (PhaseResult, error) {
	l := s.load
	l.lat = l.lat[:0] // the last phase's samples were copied out by the caller
	l.wrong.Store(0)
	l.stray.Store(0)
	l.pktOuts.Store(0)
	l.completed.Store(0)
	s.spans = nil
	s.tracing.Store(p.Trace)

	var res PhaseResult
	small, large := s.rig.piSmall, s.rig.piLarge
	if s.relay {
		small, large = s.rig.piRelaySmall, s.rig.piRelayLarge
	}
	buf := l.sendBuf[:0]
	// emit appends the next request, due at instant due, to buf. A request
	// whose slot is still pending is passed over — an admission can overtake
	// another by more than a hot set's length while dfid is busy mutating —
	// unless the pending one has outlived ReplyTimeout, which loses it. emit
	// reports false when it found no free slot and wrote nothing.
	emit := func(due int64) bool {
		var q uint32
		var idx int
		var f *LoadFlow
		for tries := 0; ; tries++ {
			q = *seq
			*seq++
			idx = slotOf(q)
			if !s.relay {
				var sport uint16
				f, sport = p.Next(q)
				idx = int(sport)
			}
			old := l.slots[idx].Load()
			if old == 0 {
				break
			}
			if due-old>>1 > int64(ReplyTimeout) {
				if l.slots[idx].CompareAndSwap(old, 0) {
					res.Lost++
					l.outstanding.Add(-1)
				}
				break
			}
			if tries == 2*satWindowMax {
				return false
			}
		}
		tmpl := small
		if p.Large != nil && p.Large(q) {
			tmpl = large
		}
		v := due << 1
		if s.relay {
			// Any bound host will do: no rule is consulted for table 1.
			h := &s.rig.In.Hosts[int(q)%len(s.rig.In.Hosts)]
			buf = tmpl.append(buf, q, InPort(0), h, h, uint16(idx), 80, TagRelay)
		} else {
			tag := TagExpectDeny
			if f.Allow {
				tag, v = TagExpectAllow, v|1
			}
			buf = tmpl.append(buf, q, f.InPort, f.Src, f.Dst, uint16(idx), f.DPort, tag)
		}
		if p.Trace {
			l.traceDue[idx].Store(due)
		}
		l.slots[idx].Store(v)
		res.Sent++
		return true
	}
	flush := func(n int64) error {
		l.outstanding.Add(n)
		err := s.write(buf)
		buf = buf[:0]
		return err
	}

	start := s.rig.now()
	if p.Start > 0 {
		start = int64(p.Start)
	}
	end := start + int64(p.Duration)
	if p.Rate > 0 {
		pacer := NewPacer()
		interval := float64(time.Second) / p.Rate
		for i := int64(0); ; i++ {
			due := start + int64(p.Offset) + int64(float64(i)*interval)
			if due >= end {
				break
			}
			pacer.SleepUntil(s.rig.base, time.Duration(due))
			res.LateNs = append(res.LateNs, s.rig.now()-due)
			if !emit(due) {
				continue
			}
			if err := flush(1); err != nil {
				pacer.Close()
				return res, err
			}
		}
		pacer.Close()
	} else {
		stop := time.NewTimer(p.Duration)
		defer stop.Stop()
	closed:
		for {
			room := int64(p.Window) - l.outstanding.Load()
			if room <= 0 {
				select {
				case <-l.wake:
					continue
				case <-stop.C:
					break closed
				}
			}
			now := s.rig.now()
			if now >= end {
				break
			}
			if p.Count > 0 {
				if room = min(room, p.Count-res.Sent); room == 0 {
					break
				}
			}
			sent := int64(0)
			for ; sent < room && emit(now); sent++ {
			}
			if err := flush(sent); err != nil {
				return res, err
			}
			if sent == 0 {
				// Every candidate slot is pending: wait for a reply.
				select {
				case <-l.wake:
				case <-stop.C:
					break closed
				}
			}
		}
	}
	sendEnd := s.rig.now()
	res.InTime = l.completed.Load()
	l.sendBuf = buf[:0] // grown to the largest burst, if it had to grow

	// Drain: every request gets ReplyTimeout to complete.
	deadline := time.Now().Add(ReplyTimeout)
	for l.outstanding.Load() > 0 && time.Now().Before(deadline) {
		select {
		case <-l.wake:
		case <-time.After(time.Millisecond):
		}
	}
	// A relayed reply is two frames; the packet-out trails the flow-mod
	// that completed the request.
	for s.relay && l.pktOuts.Load() < l.completed.Load() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	s.tracing.Store(false)
	if err, _ := s.rxErr.Load().(error); err != nil {
		return res, fmt.Errorf("switch %#x receiver: %w", s.DPID, err)
	}
	if left := l.outstanding.Load(); left > 0 {
		for i := range l.slots {
			if l.slots[i].Swap(0) != 0 {
				res.Lost++
			}
		}
		l.outstanding.Store(0)
	}
	// The receiver has nothing pending, so its tallies are at rest.
	res.Completed = l.completed.Load()
	res.Wrong, res.Stray, res.PacketOuts = l.wrong.Load(), l.stray.Load(), l.pktOuts.Load()

	res.LatNs, res.Spans = l.lat, s.spans
	res.Elapsed = time.Duration(sendEnd - start)
	return res, nil
}

// SendProbe offers probe k's flow to this switch as a table-0 packet-in.
func (s *Switch) SendProbe(k int, p *gen.Probe, expectAllow bool) error {
	in := s.rig.In
	tag := TagExpectDeny
	if expectAllow {
		tag = TagExpectAllow
	}
	frame := s.rig.piSmall.append(nil, probeXID|uint32(k), InPort(p.Src), &in.Hosts[p.Src], &in.Hosts[p.Dst],
		uint16(probeBase+k), p.DPort, tag)
	return s.write(frame)
}

// Probe returns the state of probe k's entry on this switch.
func (s *Switch) Probe(k int) (present, allow bool, addedAt, removedAt int64) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	e := &s.probes[k]
	return e.present, e.allow, e.addedAt, e.removedAt
}

// Close closes the connection; the receiver or poller notices and stops.
func (s *Switch) Close() { s.conn.Close() }
