// Package proxy implements the DFI Proxy (paper §III-B, §IV-B): a
// transparent interposition layer between each OpenFlow switch and the SDN
// controller. It reserves flow table 0 of every switch for DFI's access
// control rules by shifting all table references by one as messages cross
// it, and it routes packet-ins to the Policy Compilation Point before the
// controller — denied packets never reach the controller at all, so a
// malicious or faulty controller (or its applications) cannot bypass or
// poison DFI's access control.
//
// The proxy keeps only per-connection state, is restartable, and any number
// of proxies may run in parallel.
package proxy

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

// Config parameterizes a Proxy.
type Config struct {
	// PCP receives new-flow requests before the controller sees them.
	PCP *pcp.PCP
	// DialController opens a fresh connection to the controller for each
	// switch connection (the proxy is one-connection-per-switch on both
	// sides, like the paper's implementation).
	DialController func() (io.ReadWriteCloser, error)
	// Clock and Latency simulate the proxy's forwarding overhead (paper
	// Table II "Proxy": 0.16 ms); zero by default.
	Clock   simclock.Clock
	Latency store.LatencyModel
	// Obs receives the proxy's instruments. Nil selects the PCP's registry,
	// so a directly-constructed proxy exposes its counters alongside the
	// PCP's in one place.
	Obs *obs.Registry
}

// flowStatsTimeout bounds how long a DFI-originated flow-stats read
// (switchWriter.ReadFlows) waits for the switch's multipart reply before
// giving up.
const flowStatsTimeout = 10 * time.Second

// Stats is a point-in-time snapshot of the proxy's counters, assembled from
// the obs registry (the registry is the source of truth; this struct is a
// convenience view for harness code and /v1/stats).
type Stats struct {
	PacketIns       uint64
	Denied          uint64
	DroppedOverload uint64
	Forwarded       uint64
}

// Proxy interposes between switches and the controller.
type Proxy struct {
	cfg      Config
	overhead *obs.Histogram

	packetIns *obs.Counter
	denied    *obs.Counter
	dropped   *obs.Counter
	forwarded *obs.Counter
	conns     *obs.Gauge

	relayErrSwitch     *obs.Counter
	relayErrController *obs.Counter
}

// New returns a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.PCP == nil {
		return nil, errors.New("proxy: nil PCP")
	}
	if cfg.DialController == nil {
		return nil, errors.New("proxy: nil DialController")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = cfg.PCP.Registry()
	}
	relayErrs := reg.CounterVec("dfi_proxy_relay_errors_total",
		"Relay legs that ended with a real failure (orderly closes excluded), by side.",
		"side")
	p := &Proxy{
		cfg: cfg,
		packetIns: reg.Counter("dfi_proxy_packet_ins_total",
			"Packet-ins intercepted from switches."),
		denied: reg.Counter("dfi_proxy_denied_total",
			"Packet-ins denied by the PCP and withheld from the controller."),
		dropped: reg.Counter("dfi_proxy_overload_drops_total",
			"Packet-ins dropped before a decision (PCP queue full or unidentified switch)."),
		forwarded: reg.Counter("dfi_proxy_forwarded_total",
			"Packet-ins forwarded to the controller."),
		overhead: reg.Histogram("dfi_proxy_forward_seconds",
			"Proxy-side forwarding overhead per admission-checked packet-in (paper Table II \"Proxy\").", nil),
		conns: reg.Gauge("dfi_proxy_connections",
			"Switch connections currently relayed by the proxy."),
		relayErrSwitch:     relayErrs.With("switch"),
		relayErrController: relayErrs.With("controller"),
	}
	return p, nil
}

// orderlyClose reports whether a relay leg's terminal error is an orderly
// shutdown rather than a real failure: EOF from the peer, our own side
// closing the stream (pipe or net.Conn), or the pre-Go-1.16 textual form
// of net.ErrClosed that some wrapped streams still surface.
func orderlyClose(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	return strings.Contains(err.Error(), "use of closed network connection")
}

// Stats returns a snapshot of aggregate statistics.
func (p *Proxy) Stats() Stats {
	return Stats{
		PacketIns:       p.packetIns.Value(),
		Denied:          p.denied.Value(),
		DroppedOverload: p.dropped.Value(),
		Forwarded:       p.forwarded.Value(),
	}
}

// Overhead returns the proxy's measured per-packet-in forwarding cost.
func (p *Proxy) Overhead() *obs.Histogram { return p.overhead }

// switchWriter adapts the switch-side connection as the PCP's write and
// read paths.
type switchWriter struct {
	sess *session
}

var (
	_ pcp.SwitchClient = (*switchWriter)(nil)
	_ pcp.FlowReader   = (*switchWriter)(nil)
)

func (w *switchWriter) WriteFlowMod(fm *openflow.FlowMod) error {
	_, err := w.sess.sw.Send(fm)
	return err
}

// WriteFlowMods implements pcp.FlowModBatcher: every flow mod is encoded
// into the switch connection's coalescing buffer and the batch reaches the
// stream in one write, instead of one syscall per message.
func (w *switchWriter) WriteFlowMods(fms []*openflow.FlowMod) error {
	var firstErr error
	for _, fm := range fms {
		if _, err := w.sess.sw.Queue(fm); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := w.sess.sw.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// statsTimerPool recycles ReadFlows timeout timers, replacing the per-call
// time.After allocation (whose timer lingers until it fires even after the
// reply arrives). Timers are returned stopped and drained.
var statsTimerPool = sync.Pool{
	New: func() any {
		t := time.NewTimer(time.Hour)
		if !t.Stop() {
			<-t.C
		}
		return t
	},
}

// ReadFlows issues a DFI-originated flow-stats request to the switch and
// waits for the reply, which the relay routes back here instead of to the
// controller. The wait is bounded by flowStatsTimeout.
func (w *switchWriter) ReadFlows(req *openflow.FlowStatsRequest) ([]*openflow.FlowStatsEntry, error) {
	xid, ch := w.sess.registerPending()
	defer w.sess.unregisterPending(xid)
	err := w.sess.sw.SendXID(xid, &openflow.MultipartRequest{
		PartType: openflow.MultipartFlow,
		Flow:     req,
	})
	if err != nil {
		return nil, err
	}
	t := statsTimerPool.Get().(*time.Timer)
	t.Reset(flowStatsTimeout)
	defer func() {
		if !t.Stop() {
			select { // drain a fired timer before pooling it
			case <-t.C:
			default:
			}
		}
		statsTimerPool.Put(t)
	}()
	select {
	case rep, ok := <-ch:
		if !ok {
			return nil, errSessionClosed
		}
		return rep.Flows, nil
	case <-t.C:
		return nil, errStatsTimeout
	}
}

var (
	errSessionClosed = errors.New("proxy: session closed")
	errStatsTimeout  = errors.New("proxy: flow-stats timeout")
)

// ServeSwitch handles one switch connection: it dials the controller,
// relays messages in both directions applying DFI's rewrites on two
// goroutines, one per direction, and blocks until either side closes.
func (p *Proxy) ServeSwitch(swStream io.ReadWriteCloser) error {
	ctlStream, err := p.cfg.DialController()
	if err != nil {
		swStream.Close()
		return fmt.Errorf("proxy: dial controller: %w", err)
	}
	sw := openflow.NewConn(swStream)
	ctl := openflow.NewConn(ctlStream)

	sess := &session{
		proxy: p,
		sw:    sw,
		ctl:   ctl,
	}
	p.conns.Inc()
	defer func() {
		swStream.Close()
		ctlStream.Close()
		if dpid, ok := sess.dpid.Load().(uint64); ok {
			p.cfg.PCP.DetachSwitch(dpid)
		}
		sess.wg.Wait()
		p.conns.Dec()
	}()

	errc := make(chan relayResult, 2)
	var relayWG sync.WaitGroup
	relayWG.Add(2)
	go func() {
		defer relayWG.Done()
		errc <- relayResult{p.relayErrSwitch, sess.relaySwitchToController()}
	}()
	go func() {
		defer relayWG.Done()
		errc <- relayResult{p.relayErrController, sess.relayControllerToSwitch()}
	}()
	first := <-errc
	// Unblock the other relay.
	swStream.Close()
	ctlStream.Close()
	relayWG.Wait()
	second := <-errc
	for _, r := range [2]relayResult{first, second} {
		if !orderlyClose(r.err) {
			r.side.Inc()
		}
	}
	if orderlyClose(first.err) {
		return nil
	}
	return first.err
}

// HandleSwitch serves one switch connection without blocking the caller:
// it runs ServeSwitch on its own goroutine and invokes done exactly once
// when the session ends (nil for an orderly close). It always returns nil;
// a controller dial failure is reported through done.
func (p *Proxy) HandleSwitch(swStream io.ReadWriteCloser, done func(error)) error {
	if done == nil {
		done = func(error) {}
	}
	go func() { done(p.ServeSwitch(swStream)) }()
	return nil
}

// relayResult tags a relay leg's terminal error with its side for the
// failure counter.
type relayResult struct {
	side *obs.Counter
	err  error
}

// session is the per-switch-connection relay state.
type session struct {
	proxy *Proxy
	sw    *openflow.Conn
	ctl   *openflow.Conn
	dpid  atomic.Value // uint64, set from the features reply
	wg    sync.WaitGroup

	// pending maps DFI-originated multipart xids to reply channels. DFI
	// xids carry the top bit to stay clear of controller transaction ids.
	pendingMu sync.Mutex
	pending   map[uint32]chan *openflow.MultipartReply
	nextXID   uint32
}

func (s *session) registerPending() (uint32, chan *openflow.MultipartReply) {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	if s.pending == nil {
		s.pending = make(map[uint32]chan *openflow.MultipartReply)
	}
	s.nextXID++
	xid := 0x80000000 | s.nextXID
	ch := make(chan *openflow.MultipartReply, 1)
	s.pending[xid] = ch
	return xid, ch
}

func (s *session) unregisterPending(xid uint32) {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	delete(s.pending, xid)
}

// takePending routes a reply to a waiting DFI read, reporting whether it
// was consumed.
func (s *session) takePending(xid uint32, rep *openflow.MultipartReply) bool {
	s.pendingMu.Lock()
	ch, ok := s.pending[xid]
	if ok {
		delete(s.pending, xid)
	}
	s.pendingMu.Unlock()
	if !ok {
		return false
	}
	ch <- rep
	return true
}

// The relay loops operate on raw frames: the hot message types are
// rewritten in place and forwarded without a decode/encode round trip, and
// forwards coalesce in the peer connection's write buffer, flushed when
// this side's input runs dry (no already-buffered bytes left, i.e. the
// next read would block). A burst of N messages thus crosses the proxy in
// one write instead of N.

func (s *session) relaySwitchToController() error {
	var f openflow.Frame
	for {
		if err := s.sw.RecvFrame(&f); err != nil {
			return err
		}
		if err := s.handleFrameFromSwitch(&f); err != nil {
			return err
		}
		if s.sw.InputBuffered() == 0 {
			if err := s.ctl.Flush(); err != nil {
				return err
			}
		}
	}
}

// handleFrameFromSwitch applies the switch→controller rewrites. Table-1+
// packet-ins and flow-removed are rewritten in place and forwarded; a frame
// the in-place rewriter rejects is malformed and fails the connection.
// Only the types that need structural interpretation (features, multipart)
// or a policy decision (table-0 packet-ins) are decoded.
//
//dfi:hotpath
func (s *session) handleFrameFromSwitch(f *openflow.Frame) error {
	p := s.proxy
	switch f.Type() {
	case openflow.TypePacketIn:
		tid, ok := f.PacketInTableID()
		if !ok {
			return malformedErr(f.Type())
		}
		if tid > 0 {
			// A miss in table 1+ was already admitted by DFI's table-0
			// rules: it belongs to the controller's forwarding logic.
			// Shift the table id in place and forward the bytes without
			// re-evaluating policy.
			p.packetIns.Inc()
			f.ShiftPacketInTable(-1)
			if err := s.ctl.QueueFrame(f); err != nil {
				return err
			}
			p.forwarded.Inc()
			return nil
		}
		// Table-0 packet-ins carry a new flow: decode and run admission.

	case openflow.TypeFlowRemoved:
		tid, ok := f.FlowRemovedTableID()
		if !ok {
			return malformedErr(f.Type())
		}
		if tid == 0 {
			return nil // DFI's own rule: consumed, never shown
		}
		f.ShiftFlowRemovedTable(-1)
		return s.ctl.QueueFrame(f)

	case openflow.TypeFeaturesReply, openflow.TypeMultipartReply:
		// Table hiding, reply filtering and DFI-read routing need the
		// decoded form.

	default:
		// Transparent passthrough, byte for byte.
		return s.ctl.QueueFrame(f)
	}
	xid, msg, err := f.Decode()
	if err != nil {
		return err
	}
	return s.handleFromSwitch(xid, msg)
}

// malformedErr reports a frame the in-place rewriter rejected; kept off the
// annotated relay path.
func malformedErr(t openflow.MessageType) error {
	return fmt.Errorf("proxy: malformed %v frame", t)
}

// handleFromSwitch handles the decoded switch→controller messages: the
// features reply, table-0 packet-ins and multipart replies.
func (s *session) handleFromSwitch(xid uint32, msg openflow.Message) error {
	p := s.proxy
	switch m := msg.(type) {
	case *openflow.FeaturesReply:
		// Learn the datapath id and register the DFI write path for it.
		s.dpid.Store(m.DatapathID)
		p.cfg.PCP.AttachSwitch(m.DatapathID, &switchWriter{sess: s})
		// Hide table 0 from the controller.
		out := *m
		if out.NumTables > 1 {
			out.NumTables--
		}
		return s.ctl.SendXID(xid, &out)

	case *openflow.PacketIn:
		return s.handlePacketIn(xid, m)

	case *openflow.MultipartReply:
		if s.takePending(xid, m) {
			return nil // a DFI-originated read, not the controller's
		}
		if m.PartType == openflow.MultipartTable {
			// Hide table 0's row and renumber the rest for the
			// controller's table space.
			out := &openflow.MultipartReply{PartType: m.PartType, Flags: m.Flags}
			for _, ts := range m.Tables {
				if ts.TableID == 0 {
					continue
				}
				cp := *ts
				cp.TableID--
				out.Tables = append(out.Tables, &cp)
			}
			return s.ctl.SendXID(xid, out)
		}
		if m.PartType != openflow.MultipartFlow {
			return s.ctl.SendXID(xid, m)
		}
		out := &openflow.MultipartReply{PartType: m.PartType, Flags: m.Flags}
		for _, fs := range m.Flows {
			if fs.TableID == 0 {
				continue // DFI's rules are invisible to the controller
			}
			cp := *fs
			cp.TableID--
			cp.Instructions = shiftInstructions(cp.Instructions, -1)
			out.Flows = append(out.Flows, &cp)
		}
		return s.ctl.SendXID(xid, out)

	default:
		return fmt.Errorf("proxy: unexpected decoded %v from switch", msg.Type())
	}
}

// handlePacketIn runs admission for a table-0 packet-in: the PCP decides,
// and only an allowed packet-in is forwarded to the controller.
func (s *session) handlePacketIn(xid uint32, pi *openflow.PacketIn) error {
	p := s.proxy
	p.packetIns.Inc()

	t0 := p.cfg.Clock.Now()
	store.Charge(p.cfg.Clock, p.cfg.Latency)

	dpid, ok := s.dpid.Load().(uint64)
	if !ok {
		// Packet-in before the features exchange: indistinguishable
		// switches cannot be policy-checked; drop.
		p.dropped.Inc()
		return nil
	}

	req := &pcp.Request{
		DPID:     dpid,
		PacketIn: pi,
		Done: func(dec pcp.Decision) {
			defer s.wg.Done()
			if !dec.Allow {
				// Denied (or unevaluable) packets never reach the
				// controller, so it cannot be poisoned by them.
				p.denied.Inc()
				return
			}
			if err := s.ctl.SendXID(xid, pi); err == nil {
				p.forwarded.Inc()
			}
		},
	}
	s.wg.Add(1)
	req.ProxyOverhead = p.cfg.Clock.Now().Sub(t0)
	if !p.cfg.PCP.Submit(req) {
		s.wg.Done()
		p.dropped.Inc()
	}
	p.overhead.Add(p.cfg.Clock.Now().Sub(t0))
	return nil
}

func (s *session) relayControllerToSwitch() error {
	var f openflow.Frame
	for {
		if err := s.ctl.RecvFrame(&f); err != nil {
			return err
		}
		if err := s.handleFrameFromController(&f); err != nil {
			return err
		}
		if s.ctl.InputBuffered() == 0 {
			if err := s.sw.Flush(); err != nil {
				return err
			}
		}
	}
}

// handleFrameFromController applies the controller→switch table-space
// rewrites in place on the raw frame; a flow-mod or table-mod the in-place
// rewriter rejects is malformed and fails the connection. Only multipart
// requests are decoded.
//
//dfi:hotpath
func (s *session) handleFrameFromController(f *openflow.Frame) error {
	switch f.Type() {
	case openflow.TypeFlowMod:
		if !f.ShiftFlowModTables(+1) {
			return malformedErr(f.Type())
		}
	case openflow.TypeTableMod:
		if !f.ShiftTableModTable(+1) {
			return malformedErr(f.Type())
		}
	case openflow.TypeMultipartReq:
		// Flow/aggregate stats requests rewrite an inner table id the
		// frame walker does not model.
		xid, msg, err := f.Decode()
		if err != nil {
			return err
		}
		return s.handleMultipartRequest(xid, msg.(*openflow.MultipartRequest))
	}
	return s.sw.QueueFrame(f)
}

// handleMultipartRequest shifts the table id of a controller flow or
// aggregate stats request into the switch's table space.
func (s *session) handleMultipartRequest(xid uint32, m *openflow.MultipartRequest) error {
	if (m.PartType != openflow.MultipartFlow && m.PartType != openflow.MultipartAggregate) || m.Flow == nil {
		return s.sw.SendXID(xid, m)
	}
	out := *m
	flow := *m.Flow
	if flow.TableID != openflow.AllTables {
		flow.TableID++
	} else {
		// ALL from the controller means "all controller tables":
		// tables 1 and up. The switch cannot express that in one
		// request, so ask for ALL and rely on the reply filter to
		// hide table 0.
	}
	out.Flow = &flow
	return s.sw.SendXID(xid, &out)
}

// shiftInstructions returns a copy of instrs with goto-table targets
// shifted by delta; other instructions are shared as-is.
func shiftInstructions(instrs []openflow.Instruction, delta int) []openflow.Instruction {
	if len(instrs) == 0 {
		return instrs
	}
	out := make([]openflow.Instruction, len(instrs))
	for i, in := range instrs {
		if gt, ok := in.(*openflow.InstructionGotoTable); ok {
			shifted := int(gt.TableID) + delta
			if shifted < 0 {
				shifted = 0
			}
			out[i] = &openflow.InstructionGotoTable{TableID: uint8(shifted)}
		} else {
			out[i] = in
		}
	}
	return out
}
