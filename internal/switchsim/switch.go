// Package switchsim implements a software OpenFlow 1.3 switch: a
// multi-table flow pipeline with priority matching, goto-table chaining,
// cookies, idle/hard timeouts and per-rule counters on the data-plane side,
// and an OpenFlow agent serving flow-mods, packet-outs, barriers and flow
// statistics on the control-plane side. It is the from-scratch substrate
// standing in for Open vSwitch on the paper's testbed.
package switchsim

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

// Config parameterizes a Switch.
type Config struct {
	// DPID is the datapath id reported in the features reply.
	DPID uint64
	// NumTables is the pipeline depth (default 4).
	NumTables int
	// TableCapacity bounds entries per table, reflecting hardware rule
	// memory limits of 512–8192 the paper cites (default 8192).
	TableCapacity int
	// Clock provides time for timeouts and statistics (default wall clock).
	Clock simclock.Clock
	// MissSendToController makes table misses generate packet-ins, as in
	// the paper's reactive deployment (default true via NewSwitch).
	MissSendToController bool
}

// Counters exposes aggregate data-plane statistics.
type Counters struct {
	RxPackets    uint64
	TxPackets    uint64
	PacketIns    uint64
	Drops        uint64
	CtrlDrops    uint64 // packet-ins lost because no controller was attached
	FlowModCount uint64
}

// Switch is a software OpenFlow switch.
type Switch struct {
	cfg Config

	mu      sync.Mutex
	tables  []*table
	nextSeq uint64

	portMu sync.RWMutex
	ports  map[uint32]func([]byte)

	ctrlMu sync.Mutex
	ctrl   *openflow.Conn

	configured atomic.Bool

	rxPackets atomic.Uint64
	txPackets atomic.Uint64
	packetIns atomic.Uint64
	drops     atomic.Uint64
	ctrlDrops atomic.Uint64
	flowMods  atomic.Uint64
}

// NewSwitch returns a switch with the given configuration.
func NewSwitch(cfg Config) *Switch {
	if cfg.NumTables <= 0 {
		cfg.NumTables = 4
	}
	if cfg.NumTables > 254 {
		cfg.NumTables = 254
	}
	if cfg.TableCapacity <= 0 {
		cfg.TableCapacity = 8192
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	cfg.MissSendToController = true
	s := &Switch{
		cfg:   cfg,
		ports: make(map[uint32]func([]byte)),
	}
	for i := 0; i < cfg.NumTables; i++ {
		s.tables = append(s.tables, newTable(uint8(i)))
	}
	return s
}

// DPID returns the datapath id.
func (s *Switch) DPID() uint64 { return s.cfg.DPID }

// Configured reports whether a controller has completed its handshake and
// sent SET_CONFIG — a readiness probe for harnesses that inject traffic.
func (s *Switch) Configured() bool { return s.configured.Load() }

// WaitConfigured polls Configured until it is true or the timeout elapses.
func (s *Switch) WaitConfigured(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.Configured() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return s.Configured()
}

// AttachPort registers the delivery function for frames output on port.
// Reserved port numbers are rejected.
func (s *Switch) AttachPort(port uint32, deliver func(frame []byte)) error {
	if port == 0 || port >= openflow.PortMax {
		return fmt.Errorf("switchsim: invalid port %d", port)
	}
	if deliver == nil {
		return errors.New("switchsim: nil deliver func")
	}
	s.portMu.Lock()
	s.ports[port] = deliver
	s.portMu.Unlock()
	s.sendPortStatus(port, openflow.PortReasonAdd, openflow.PortStateLive)
	return nil
}

// DetachPort removes a port, announcing the link-down to the control plane
// (real switches emit PORT_STATUS; controllers purge learned locations).
func (s *Switch) DetachPort(port uint32) {
	s.portMu.Lock()
	_, existed := s.ports[port]
	delete(s.ports, port)
	s.portMu.Unlock()
	if existed {
		s.sendPortStatus(port, openflow.PortReasonDelete, openflow.PortStateLinkDown)
	}
}

func (s *Switch) sendPortStatus(port uint32, reason uint8, state uint32) {
	s.ctrlMu.Lock()
	ctrl := s.ctrl
	s.ctrlMu.Unlock()
	if ctrl == nil {
		return
	}
	_, _ = ctrl.Send(&openflow.PortStatus{
		Reason: reason,
		Desc: openflow.PortDesc{
			PortNo: port,
			Name:   fmt.Sprintf("port%d", port),
			State:  state,
		},
	})
}

// Counters returns a snapshot of aggregate statistics.
func (s *Switch) Counters() Counters {
	return Counters{
		RxPackets:    s.rxPackets.Load(),
		TxPackets:    s.txPackets.Load(),
		PacketIns:    s.packetIns.Load(),
		Drops:        s.drops.Load(),
		CtrlDrops:    s.ctrlDrops.Load(),
		FlowModCount: s.flowMods.Load(),
	}
}

// Outcome classifies the pipeline result for one packet.
type Outcome int

// Pipeline outcomes.
const (
	// OutcomeMiss means no entry matched in the ending table (a real
	// switch would send a packet-in).
	OutcomeMiss Outcome = iota + 1
	// OutcomeDrop means a matching entry had no output (a deny rule).
	OutcomeDrop
	// OutcomeForward means the packet would be output on a port.
	OutcomeForward
)

// Evaluate runs the pipeline for a frame as if it arrived on inPort —
// updating match counters and idle timestamps exactly like Inject — but
// performs no deliveries and sends no packet-in. It returns the outcome and
// the table where processing ended. The discrete-event testbed uses this as
// its synchronous data plane.
func (s *Switch) Evaluate(inPort uint32, frame []byte) (Outcome, uint8) {
	key, err := netpkt.ExtractFlowKey(frame)
	if err != nil {
		return OutcomeDrop, 0
	}
	res := s.runPipeline(key, inPort, frame)
	switch {
	case res.packetIn != nil && res.packetIn.Reason == openflow.PacketInReasonNoMatch:
		return OutcomeMiss, res.packetIn.TableID
	case len(res.outputs) > 0 || res.packetIn != nil:
		return OutcomeForward, 0
	default:
		return OutcomeDrop, 0
	}
}

// pipelineResult captures the outcome of a pipeline walk so that frame
// delivery happens outside the table lock.
type pipelineResult struct {
	outputs  []uint32
	packetIn *openflow.PacketIn
}

// Inject delivers a frame arriving on inPort into the pipeline. It is safe
// for concurrent use.
func (s *Switch) Inject(inPort uint32, frame []byte) {
	s.rxPackets.Add(1)
	key, err := netpkt.ExtractFlowKey(frame)
	if err != nil {
		s.drops.Add(1)
		return
	}
	res := s.runPipeline(key, inPort, frame)
	s.execute(inPort, frame, res)
}

func (s *Switch) runPipeline(key netpkt.FlowKey, inPort uint32, frame []byte) pipelineResult {
	now := s.cfg.Clock.Now()
	var res pipelineResult

	s.mu.Lock()
	defer s.mu.Unlock()
	tableID := 0
	for tableID < len(s.tables) {
		entry := s.tables[tableID].lookup(key, inPort, now)
		if entry == nil {
			if s.cfg.MissSendToController {
				res.packetIn = &openflow.PacketIn{
					BufferID: openflow.NoBuffer,
					Reason:   openflow.PacketInReasonNoMatch,
					TableID:  uint8(tableID),
					Match:    &openflow.Match{InPort: openflow.U32(inPort)},
					Data:     frame,
				}
			}
			return res
		}
		entry.packets++
		entry.bytes += uint64(len(frame))
		entry.lastMatched = now

		next := -1
		for _, instr := range entry.instructions {
			switch in := instr.(type) {
			case *openflow.InstructionApplyActions:
				for _, act := range in.Actions {
					out, ok := act.(*openflow.ActionOutput)
					if !ok {
						continue
					}
					if out.Port == openflow.PortController {
						res.packetIn = &openflow.PacketIn{
							BufferID: openflow.NoBuffer,
							Reason:   openflow.PacketInReasonAction,
							TableID:  uint8(tableID),
							Cookie:   entry.cookie,
							Match:    &openflow.Match{InPort: openflow.U32(inPort)},
							Data:     frame,
						}
					} else {
						res.outputs = append(res.outputs, out.Port)
					}
				}
			case *openflow.InstructionGotoTable:
				next = int(in.TableID)
			}
		}
		if next < 0 {
			return res
		}
		if next <= tableID || next >= len(s.tables) {
			// Invalid forward reference: stop processing.
			return res
		}
		tableID = next
	}
	return res
}

// execute performs frame deliveries and packet-ins decided by a pipeline
// walk; called without holding the table lock.
func (s *Switch) execute(inPort uint32, frame []byte, res pipelineResult) {
	if res.packetIn != nil {
		s.sendPacketIn(res.packetIn)
	}
	if len(res.outputs) == 0 && res.packetIn == nil {
		s.drops.Add(1)
		return
	}
	for _, port := range res.outputs {
		switch port {
		case openflow.PortFlood, openflow.PortAll:
			s.flood(inPort, frame)
		case openflow.PortInPort:
			s.deliver(inPort, frame)
		default:
			s.deliver(port, frame)
		}
	}
}

func (s *Switch) deliver(port uint32, frame []byte) {
	s.portMu.RLock()
	fn := s.ports[port]
	s.portMu.RUnlock()
	if fn == nil {
		s.drops.Add(1)
		return
	}
	s.txPackets.Add(1)
	fn(frame)
}

func (s *Switch) flood(exceptPort uint32, frame []byte) {
	s.portMu.RLock()
	targets := make([]func([]byte), 0, len(s.ports))
	for port, fn := range s.ports {
		if port != exceptPort {
			targets = append(targets, fn)
		}
	}
	s.portMu.RUnlock()
	for _, fn := range targets {
		s.txPackets.Add(1)
		fn(frame)
	}
}

func (s *Switch) sendPacketIn(pi *openflow.PacketIn) {
	s.ctrlMu.Lock()
	ctrl := s.ctrl
	s.ctrlMu.Unlock()
	if ctrl == nil {
		s.ctrlDrops.Add(1)
		return
	}
	s.packetIns.Add(1)
	if _, err := ctrl.Send(pi); err != nil {
		s.ctrlDrops.Add(1)
	}
}

// SweepTimeouts removes expired entries across all tables, emitting
// FLOW_REMOVED for entries that requested it. It returns the number of
// entries removed. The testbed calls this from simulated time; real
// deployments run it from a ticker.
func (s *Switch) SweepTimeouts() int {
	now := s.cfg.Clock.Now()
	type removal struct {
		entry  *flowEntry
		reason uint8
		table  uint8
	}
	var removals []removal

	s.mu.Lock()
	for _, t := range s.tables {
		for _, e := range t.expire(now) {
			_, reason := e.expired(now)
			removals = append(removals, removal{entry: e, reason: reason, table: t.id})
		}
	}
	s.mu.Unlock()

	for _, r := range removals {
		if r.entry.flags&openflow.FlowFlagSendFlowRem != 0 {
			s.sendFlowRemoved(r.entry, r.table, r.reason, now)
		}
	}
	return len(removals)
}

func (s *Switch) sendFlowRemoved(e *flowEntry, tableID uint8, reason uint8, now time.Time) {
	s.ctrlMu.Lock()
	ctrl := s.ctrl
	s.ctrlMu.Unlock()
	if ctrl == nil {
		return
	}
	dur := now.Sub(e.installedAt)
	fr := &openflow.FlowRemoved{
		Cookie:      e.cookie,
		Priority:    e.priority,
		Reason:      reason,
		TableID:     tableID,
		DurationSec: uint32(dur / time.Second),
		IdleTimeout: uint16(e.idleTimeout / time.Second),
		HardTimeout: uint16(e.hardTimeout / time.Second),
		PacketCount: e.packets,
		ByteCount:   e.bytes,
		Match:       e.match.Clone(),
	}
	_, _ = ctrl.Send(fr)
}

// FlowCount returns the number of installed entries in the given table.
func (s *Switch) FlowCount(tableID uint8) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(tableID) >= len(s.tables) {
		return 0
	}
	return s.tables[tableID].size()
}

// TotalFlowCount returns the number of installed entries across all tables.
func (s *Switch) TotalFlowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tables {
		n += t.size()
	}
	return n
}

var errClosed = errors.New("switchsim: control connection closed")

// ServeControl runs the OpenFlow agent over the given control-channel
// stream, blocking until the stream fails or closes. The switch sends its
// HELLO immediately, as a real switch does on connect.
func (s *Switch) ServeControl(rw io.ReadWriter) error {
	conn := openflow.NewConn(rw)
	s.ctrlMu.Lock()
	s.ctrl = conn
	s.ctrlMu.Unlock()
	defer func() {
		s.ctrlMu.Lock()
		if s.ctrl == conn {
			s.ctrl = nil
		}
		s.ctrlMu.Unlock()
	}()

	if _, err := conn.Send(&openflow.Hello{}); err != nil {
		return fmt.Errorf("switchsim: hello: %w", err)
	}
	for {
		xid, msg, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return errClosed
			}
			return fmt.Errorf("switchsim: recv: %w", err)
		}
		if err := s.handleControl(conn, xid, msg); err != nil {
			return err
		}
	}
}

func (s *Switch) handleControl(conn *openflow.Conn, xid uint32, msg openflow.Message) error {
	switch m := msg.(type) {
	case *openflow.Hello:
		return nil
	case *openflow.EchoRequest:
		return conn.SendXID(xid, &openflow.EchoReply{Data: m.Data})
	case *openflow.FeaturesRequest:
		return conn.SendXID(xid, &openflow.FeaturesReply{
			DatapathID: s.cfg.DPID,
			NumTables:  uint8(len(s.tables)),
		})
	case *openflow.GetConfigRequest:
		return conn.SendXID(xid, &openflow.GetConfigReply{MissSendLen: 0xffff})
	case *openflow.SetConfig:
		s.configured.Store(true)
		return nil
	case *openflow.BarrierRequest:
		return conn.SendXID(xid, &openflow.BarrierReply{})
	case *openflow.PacketOut:
		s.handlePacketOut(m)
		return nil
	case *openflow.FlowMod:
		if err := s.WriteFlowMod(m); err != nil {
			return conn.SendXID(xid, &openflow.Error{
				ErrType: 5, // OFPET_FLOW_MOD_FAILED
				Code:    errorCodeFor(err),
			})
		}
		return nil
	case *openflow.MultipartRequest:
		return s.handleMultipart(conn, xid, m)
	default:
		return nil // ignore unmodeled messages
	}
}

func (s *Switch) handlePacketOut(po *openflow.PacketOut) {
	var res pipelineResult
	for _, act := range po.Actions {
		out, ok := act.(*openflow.ActionOutput)
		if !ok {
			continue
		}
		switch out.Port {
		case openflow.PortTable:
			// Re-submit to the pipeline.
			key, err := netpkt.ExtractFlowKey(po.Data)
			if err != nil {
				s.drops.Add(1)
				continue
			}
			sub := s.runPipeline(key, po.InPort, po.Data)
			s.execute(po.InPort, po.Data, sub)
		default:
			res.outputs = append(res.outputs, out.Port)
		}
	}
	s.execute(po.InPort, po.Data, res)
}

// Errors from flow-mod application, matched to OpenFlow error codes.
var (
	ErrBadTable  = errors.New("switchsim: bad table id")
	ErrTableFull = errors.New("switchsim: table full")
)

func errorCodeFor(err error) uint16 {
	switch {
	case errors.Is(err, ErrTableFull):
		return 1 // OFPFMFC_TABLE_FULL
	case errors.Is(err, ErrBadTable):
		return 2 // OFPFMFC_BAD_TABLE_ID
	default:
		return 0 // OFPFMFC_UNKNOWN
	}
}

// WriteFlowMod applies a flow-mod to the pipeline. It is exported so that
// in-process harnesses can program the switch without a control channel;
// it makes a Switch a pcp.SwitchClient.
func (s *Switch) WriteFlowMod(fm *openflow.FlowMod) error {
	s.flowMods.Add(1)
	now := s.cfg.Clock.Now()
	match := fm.Match
	if match == nil {
		match = &openflow.Match{}
	}

	type removal struct {
		entry *flowEntry
		table uint8
	}
	var flowRemoveds []removal

	s.mu.Lock()
	switch fm.Command {
	case openflow.FlowModAdd:
		if int(fm.TableID) >= len(s.tables) {
			s.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrBadTable, fm.TableID)
		}
		t := s.tables[fm.TableID]
		if t.size() >= s.cfg.TableCapacity {
			// Evict expired entries before refusing, as hardware table
			// managers do; FLOW_REMOVED notifications are best-effort
			// skipped on this opportunistic path. expire visits no entry
			// while none can have expired.
			t.expire(now)
		}
		if t.size() >= s.cfg.TableCapacity {
			s.mu.Unlock()
			return fmt.Errorf("%w: table %d at capacity %d", ErrTableFull, fm.TableID, s.cfg.TableCapacity)
		}
		e := &flowEntry{
			match:        match.Clone(),
			priority:     fm.Priority,
			cookie:       fm.Cookie,
			idleTimeout:  time.Duration(fm.IdleTimeout) * time.Second,
			hardTimeout:  time.Duration(fm.HardTimeout) * time.Second,
			flags:        fm.Flags,
			instructions: fm.Instructions,
			installedAt:  now,
			lastMatched:  now,
			seq:          s.nextSeq,
		}
		s.nextSeq++
		t.add(e)

	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		strict := fm.Command == openflow.FlowModDeleteStrict
		for _, t := range s.tables {
			if fm.TableID != openflow.AllTables && t.id != fm.TableID {
				continue
			}
			removed := t.removeWhere(func(e *flowEntry) bool {
				if !cookieMatches(e, fm.Cookie, fm.CookieMask) {
					return false
				}
				if strict {
					return e.priority == fm.Priority && e.match.Equal(match)
				}
				return match.Covers(e.match)
			})
			for _, e := range removed {
				if e.flags&openflow.FlowFlagSendFlowRem != 0 {
					flowRemoveds = append(flowRemoveds, removal{entry: e, table: t.id})
				}
			}
		}

	case openflow.FlowModModify, openflow.FlowModModifyStrict:
		strict := fm.Command == openflow.FlowModModifyStrict
		if int(fm.TableID) >= len(s.tables) && fm.TableID != openflow.AllTables {
			s.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrBadTable, fm.TableID)
		}
		for _, t := range s.tables {
			if fm.TableID != openflow.AllTables && t.id != fm.TableID {
				continue
			}
			t.modifyWhere(func(e *flowEntry) bool {
				if !cookieMatches(e, fm.Cookie, fm.CookieMask) {
					return false
				}
				if strict {
					return e.priority == fm.Priority && e.match.Equal(match)
				}
				return match.Covers(e.match)
			}, fm.Instructions)
		}

	default:
		s.mu.Unlock()
		return fmt.Errorf("switchsim: unsupported flow-mod command %d", fm.Command)
	}
	s.mu.Unlock()

	for _, r := range flowRemoveds {
		s.sendFlowRemoved(r.entry, r.table, openflow.FlowRemovedDelete, now)
	}
	return nil
}

func (s *Switch) handleMultipart(conn *openflow.Conn, xid uint32, req *openflow.MultipartRequest) error {
	switch req.PartType {
	case openflow.MultipartTable:
		var tables []*openflow.TableStatsEntry
		s.mu.Lock()
		for _, t := range s.tables {
			tables = append(tables, &openflow.TableStatsEntry{
				TableID:      t.id,
				ActiveCount:  uint32(t.size()),
				LookupCount:  t.lookups,
				MatchedCount: t.matches,
			})
		}
		s.mu.Unlock()
		return conn.SendXID(xid, &openflow.MultipartReply{PartType: openflow.MultipartTable, Tables: tables})

	case openflow.MultipartAggregate:
		if req.Flow == nil {
			return conn.SendXID(xid, &openflow.MultipartReply{
				PartType: openflow.MultipartAggregate, Aggregate: &openflow.AggregateStats{}})
		}
		match := req.Flow.Match
		if match == nil {
			match = &openflow.Match{}
		}
		agg := &openflow.AggregateStats{}
		s.mu.Lock()
		for _, t := range s.tables {
			if req.Flow.TableID != openflow.AllTables && t.id != req.Flow.TableID {
				continue
			}
			t.forEach(func(e *flowEntry) {
				if !cookieMatches(e, req.Flow.Cookie, req.Flow.CookieMask) {
					return
				}
				if !match.Covers(e.match) {
					return
				}
				agg.PacketCount += e.packets
				agg.ByteCount += e.bytes
				agg.FlowCount++
			})
		}
		s.mu.Unlock()
		return conn.SendXID(xid, &openflow.MultipartReply{PartType: openflow.MultipartAggregate, Aggregate: agg})
	}

	if req.PartType != openflow.MultipartFlow || req.Flow == nil {
		return conn.SendXID(xid, &openflow.MultipartReply{PartType: req.PartType})
	}
	now := s.cfg.Clock.Now()
	match := req.Flow.Match
	if match == nil {
		match = &openflow.Match{}
	}
	var flows []*openflow.FlowStatsEntry
	s.mu.Lock()
	for _, t := range s.tables {
		if req.Flow.TableID != openflow.AllTables && t.id != req.Flow.TableID {
			continue
		}
		t.forEach(func(e *flowEntry) {
			if !cookieMatches(e, req.Flow.Cookie, req.Flow.CookieMask) {
				return
			}
			if !match.Covers(e.match) {
				return
			}
			dur := now.Sub(e.installedAt)
			flows = append(flows, &openflow.FlowStatsEntry{
				TableID:      t.id,
				DurationSec:  uint32(dur / time.Second),
				DurationNsec: uint32(dur % time.Second),
				Priority:     e.priority,
				IdleTimeout:  uint16(e.idleTimeout / time.Second),
				HardTimeout:  uint16(e.hardTimeout / time.Second),
				Flags:        e.flags,
				Cookie:       e.cookie,
				PacketCount:  e.packets,
				ByteCount:    e.bytes,
				Match:        e.match.Clone(),
				Instructions: e.instructions,
			})
		})
	}
	s.mu.Unlock()
	return conn.SendXID(xid, &openflow.MultipartReply{PartType: openflow.MultipartFlow, Flows: flows})
}
