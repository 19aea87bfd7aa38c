package openflow

import (
	"encoding/binary"
	"fmt"
)

// Hello opens version negotiation.
type Hello struct {
	// Elements carries optional hello elements verbatim.
	Elements []byte
}

var _ Message = (*Hello)(nil)

// Type implements Message.
func (*Hello) Type() MessageType { return TypeHello }

// AppendBody implements Message.
func (h *Hello) AppendBody(dst []byte) ([]byte, error) { return appendBytes(dst, h.Elements), nil }

// UnmarshalBody implements Message.
func (h *Hello) UnmarshalBody(b []byte) error {
	h.Elements = append([]byte(nil), b...)
	return nil
}

// EchoRequest is a liveness probe.
type EchoRequest struct {
	Data []byte
}

var _ Message = (*EchoRequest)(nil)

// Type implements Message.
func (*EchoRequest) Type() MessageType { return TypeEchoRequest }

// AppendBody implements Message.
func (e *EchoRequest) AppendBody(dst []byte) ([]byte, error) { return appendBytes(dst, e.Data), nil }

// UnmarshalBody implements Message.
func (e *EchoRequest) UnmarshalBody(b []byte) error {
	e.Data = append([]byte(nil), b...)
	return nil
}

// EchoReply answers an EchoRequest, mirroring its data.
type EchoReply struct {
	Data []byte
}

var _ Message = (*EchoReply)(nil)

// Type implements Message.
func (*EchoReply) Type() MessageType { return TypeEchoReply }

// AppendBody implements Message.
func (e *EchoReply) AppendBody(dst []byte) ([]byte, error) { return appendBytes(dst, e.Data), nil }

// UnmarshalBody implements Message.
func (e *EchoReply) UnmarshalBody(b []byte) error {
	e.Data = append([]byte(nil), b...)
	return nil
}

// Error reports a protocol error (ofp_error_msg).
type Error struct {
	ErrType uint16
	Code    uint16
	Data    []byte
}

var _ Message = (*Error)(nil)

// Type implements Message.
func (*Error) Type() MessageType { return TypeError }

// AppendBody implements Message.
func (e *Error) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 4)
	binary.BigEndian.PutUint16(dst[n:n+2], e.ErrType)
	binary.BigEndian.PutUint16(dst[n+2:n+4], e.Code)
	return appendBytes(dst, e.Data), nil
}

// UnmarshalBody implements Message.
func (e *Error) UnmarshalBody(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("error msg: %w", errTooShort)
	}
	e.ErrType = binary.BigEndian.Uint16(b[0:2])
	e.Code = binary.BigEndian.Uint16(b[2:4])
	e.Data = append([]byte(nil), b[4:]...)
	return nil
}

// FeaturesRequest asks the switch for its datapath features.
type FeaturesRequest struct{}

var _ Message = (*FeaturesRequest)(nil)

// Type implements Message.
func (*FeaturesRequest) Type() MessageType { return TypeFeaturesRequest }

// AppendBody implements Message.
func (*FeaturesRequest) AppendBody(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBody implements Message.
func (*FeaturesRequest) UnmarshalBody([]byte) error { return nil }

// FeaturesReply describes the switch datapath (ofp_switch_features). The
// DFI Proxy decrements NumTables toward the controller to hide table 0.
type FeaturesReply struct {
	DatapathID   uint64
	NumBuffers   uint32
	NumTables    uint8
	AuxiliaryID  uint8
	Capabilities uint32
}

var _ Message = (*FeaturesReply)(nil)

// Type implements Message.
func (*FeaturesReply) Type() MessageType { return TypeFeaturesReply }

// AppendBody implements Message.
func (f *FeaturesReply) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 24) // reserved bytes zeroed by grow
	binary.BigEndian.PutUint64(dst[n:n+8], f.DatapathID)
	binary.BigEndian.PutUint32(dst[n+8:n+12], f.NumBuffers)
	dst[n+12] = f.NumTables
	dst[n+13] = f.AuxiliaryID
	binary.BigEndian.PutUint32(dst[n+16:n+20], f.Capabilities)
	return dst, nil
}

// UnmarshalBody implements Message.
func (f *FeaturesReply) UnmarshalBody(b []byte) error {
	if len(b) < 24 {
		return fmt.Errorf("features reply: %w", errTooShort)
	}
	f.DatapathID = binary.BigEndian.Uint64(b[0:8])
	f.NumBuffers = binary.BigEndian.Uint32(b[8:12])
	f.NumTables = b[12]
	f.AuxiliaryID = b[13]
	f.Capabilities = binary.BigEndian.Uint32(b[16:20])
	return nil
}

// GetConfigRequest asks for the switch configuration.
type GetConfigRequest struct{}

var _ Message = (*GetConfigRequest)(nil)

// Type implements Message.
func (*GetConfigRequest) Type() MessageType { return TypeGetConfigReq }

// AppendBody implements Message.
func (*GetConfigRequest) AppendBody(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBody implements Message.
func (*GetConfigRequest) UnmarshalBody([]byte) error { return nil }

// GetConfigReply carries the switch configuration.
type GetConfigReply struct {
	Flags       uint16
	MissSendLen uint16
}

var _ Message = (*GetConfigReply)(nil)

// Type implements Message.
func (*GetConfigReply) Type() MessageType { return TypeGetConfigReply }

// AppendBody implements Message.
func (c *GetConfigReply) AppendBody(dst []byte) ([]byte, error) {
	return appendSwitchConfig(dst, c.Flags, c.MissSendLen), nil
}

// UnmarshalBody implements Message.
func (c *GetConfigReply) UnmarshalBody(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("get config reply: %w", errTooShort)
	}
	c.Flags = binary.BigEndian.Uint16(b[0:2])
	c.MissSendLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

// SetConfig sets the switch configuration.
type SetConfig struct {
	Flags       uint16
	MissSendLen uint16
}

var _ Message = (*SetConfig)(nil)

// Type implements Message.
func (*SetConfig) Type() MessageType { return TypeSetConfig }

// AppendBody implements Message.
func (c *SetConfig) AppendBody(dst []byte) ([]byte, error) {
	return appendSwitchConfig(dst, c.Flags, c.MissSendLen), nil
}

// appendSwitchConfig encodes the ofp_switch_config body shared by
// GetConfigReply and SetConfig.
func appendSwitchConfig(dst []byte, flags, missSendLen uint16) []byte {
	n := len(dst)
	dst = grow(dst, 4)
	binary.BigEndian.PutUint16(dst[n:n+2], flags)
	binary.BigEndian.PutUint16(dst[n+2:n+4], missSendLen)
	return dst
}

// UnmarshalBody implements Message.
func (c *SetConfig) UnmarshalBody(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("set config: %w", errTooShort)
	}
	c.Flags = binary.BigEndian.Uint16(b[0:2])
	c.MissSendLen = binary.BigEndian.Uint16(b[2:4])
	return nil
}

// Packet-in reasons.
const (
	PacketInReasonNoMatch uint8 = 0
	PacketInReasonAction  uint8 = 1
)

// PacketIn carries a packet from the switch to the control plane
// (ofp_packet_in). DFI processes these before the controller (paper §III-B).
type PacketIn struct {
	BufferID uint32
	TotalLen uint16
	Reason   uint8
	TableID  uint8
	Cookie   uint64
	Match    *Match
	Data     []byte
}

var _ Message = (*PacketIn)(nil)

// Type implements Message.
func (*PacketIn) Type() MessageType { return TypePacketIn }

// AppendBody implements Message: the packet-in body append-encodes into
// dst without intermediate allocation, for the proxy relay path.
//
//dfi:hotpath
func (p *PacketIn) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 16)
	binary.BigEndian.PutUint32(dst[n:n+4], p.BufferID)
	totalLen := p.TotalLen
	if totalLen == 0 {
		totalLen = uint16(len(p.Data))
	}
	binary.BigEndian.PutUint16(dst[n+4:n+6], totalLen)
	dst[n+6] = p.Reason
	dst[n+7] = p.TableID
	binary.BigEndian.PutUint64(dst[n+8:n+16], p.Cookie)
	dst = matchOrEmpty(p.Match).AppendTo(dst)
	dst = grow(dst, 2) // 2-byte pad before payload
	return appendBytes(dst, p.Data), nil
}

// UnmarshalBody implements Message.
func (p *PacketIn) UnmarshalBody(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("packet-in: %w", errTooShort)
	}
	p.BufferID = binary.BigEndian.Uint32(b[0:4])
	p.TotalLen = binary.BigEndian.Uint16(b[4:6])
	p.Reason = b[6]
	p.TableID = b[7]
	p.Cookie = binary.BigEndian.Uint64(b[8:16])
	m, n, err := unmarshalMatch(b[16:])
	if err != nil {
		return fmt.Errorf("packet-in: %w", err)
	}
	p.Match = m
	rest := b[16+n:]
	if len(rest) < 2 {
		return fmt.Errorf("packet-in pad: %w", errTooShort)
	}
	p.Data = append([]byte(nil), rest[2:]...)
	return nil
}

// InPort returns the ingress port recorded in the packet-in match, or
// PortAny if absent.
func (p *PacketIn) InPort() uint32 {
	if p.Match != nil && p.Match.InPort != nil {
		return *p.Match.InPort
	}
	return PortAny
}

// PacketOut injects a packet into the data plane (ofp_packet_out).
type PacketOut struct {
	BufferID uint32
	InPort   uint32
	Actions  []Action
	Data     []byte
}

var _ Message = (*PacketOut)(nil)

// Type implements Message.
func (*PacketOut) Type() MessageType { return TypePacketOut }

// AppendBody implements Message: the packet-out body append-encodes into
// dst without intermediate allocation, for the PCP release path.
//
//dfi:hotpath
func (p *PacketOut) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 16) // fixed header; pad bytes zeroed by grow
	binary.BigEndian.PutUint32(dst[n:n+4], p.BufferID)
	binary.BigEndian.PutUint32(dst[n+4:n+8], p.InPort)
	dst = appendActions(dst, p.Actions)
	binary.BigEndian.PutUint16(dst[n+8:n+10], uint16(len(dst)-n-16))
	return appendBytes(dst, p.Data), nil
}

// UnmarshalBody implements Message.
func (p *PacketOut) UnmarshalBody(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("packet-out: %w", errTooShort)
	}
	p.BufferID = binary.BigEndian.Uint32(b[0:4])
	p.InPort = binary.BigEndian.Uint32(b[4:8])
	actsLen := int(binary.BigEndian.Uint16(b[8:10]))
	if 16+actsLen > len(b) {
		return fmt.Errorf("packet-out actions: %w", errTooShort)
	}
	acts, err := decodeActions(b[16 : 16+actsLen])
	if err != nil {
		return fmt.Errorf("packet-out: %w", err)
	}
	p.Actions = acts
	p.Data = append([]byte(nil), b[16+actsLen:]...)
	return nil
}

// Flow-mod commands (ofp_flow_mod_command).
const (
	FlowModAdd          uint8 = 0
	FlowModModify       uint8 = 1
	FlowModModifyStrict uint8 = 2
	FlowModDelete       uint8 = 3
	FlowModDeleteStrict uint8 = 4
)

// Flow-mod flags.
const (
	FlowFlagSendFlowRem uint16 = 1 << 0
)

// FlowMod programs a flow table entry (ofp_flow_mod). Cookie carries DFI's
// policy-rule tag used for cookie-scoped flushes (paper §III-B).
type FlowMod struct {
	Cookie       uint64
	CookieMask   uint64
	TableID      uint8
	Command      uint8
	IdleTimeout  uint16
	HardTimeout  uint16
	Priority     uint16
	BufferID     uint32
	OutPort      uint32
	OutGroup     uint32
	Flags        uint16
	Match        *Match
	Instructions []Instruction
}

var _ Message = (*FlowMod)(nil)

// Type implements Message.
func (*FlowMod) Type() MessageType { return TypeFlowMod }

// AppendBody implements Message: the flow-mod body append-encodes into
// dst without intermediate allocation. This is the PCP install and flush
// fan-out encode path.
//
//dfi:hotpath
func (f *FlowMod) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 40) // fixed header; pad bytes zeroed by grow
	binary.BigEndian.PutUint64(dst[n:n+8], f.Cookie)
	binary.BigEndian.PutUint64(dst[n+8:n+16], f.CookieMask)
	dst[n+16] = f.TableID
	dst[n+17] = f.Command
	binary.BigEndian.PutUint16(dst[n+18:n+20], f.IdleTimeout)
	binary.BigEndian.PutUint16(dst[n+20:n+22], f.HardTimeout)
	binary.BigEndian.PutUint16(dst[n+22:n+24], f.Priority)
	binary.BigEndian.PutUint32(dst[n+24:n+28], f.BufferID)
	binary.BigEndian.PutUint32(dst[n+28:n+32], f.OutPort)
	binary.BigEndian.PutUint32(dst[n+32:n+36], f.OutGroup)
	binary.BigEndian.PutUint16(dst[n+36:n+38], f.Flags)
	dst = matchOrEmpty(f.Match).AppendTo(dst)
	return appendInstructions(dst, f.Instructions), nil
}

// UnmarshalBody implements Message.
func (f *FlowMod) UnmarshalBody(b []byte) error {
	if len(b) < 40 {
		return fmt.Errorf("flow-mod: %w", errTooShort)
	}
	f.Cookie = binary.BigEndian.Uint64(b[0:8])
	f.CookieMask = binary.BigEndian.Uint64(b[8:16])
	f.TableID = b[16]
	f.Command = b[17]
	f.IdleTimeout = binary.BigEndian.Uint16(b[18:20])
	f.HardTimeout = binary.BigEndian.Uint16(b[20:22])
	f.Priority = binary.BigEndian.Uint16(b[22:24])
	f.BufferID = binary.BigEndian.Uint32(b[24:28])
	f.OutPort = binary.BigEndian.Uint32(b[28:32])
	f.OutGroup = binary.BigEndian.Uint32(b[32:36])
	f.Flags = binary.BigEndian.Uint16(b[36:38])
	m, n, err := unmarshalMatch(b[40:])
	if err != nil {
		return fmt.Errorf("flow-mod: %w", err)
	}
	f.Match = m
	instrs, err := decodeInstructions(b[40+n:])
	if err != nil {
		return fmt.Errorf("flow-mod: %w", err)
	}
	f.Instructions = instrs
	return nil
}

// Flow-removed reasons.
const (
	FlowRemovedIdleTimeout uint8 = 0
	FlowRemovedHardTimeout uint8 = 1
	FlowRemovedDelete      uint8 = 2
)

// FlowRemoved notifies the control plane that a flow entry was removed
// (ofp_flow_removed).
type FlowRemoved struct {
	Cookie       uint64
	Priority     uint16
	Reason       uint8
	TableID      uint8
	DurationSec  uint32
	DurationNsec uint32
	IdleTimeout  uint16
	HardTimeout  uint16
	PacketCount  uint64
	ByteCount    uint64
	Match        *Match
}

var _ Message = (*FlowRemoved)(nil)

// Type implements Message.
func (*FlowRemoved) Type() MessageType { return TypeFlowRemoved }

// AppendBody implements Message.
func (f *FlowRemoved) AppendBody(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = grow(dst, 40)
	binary.BigEndian.PutUint64(dst[n:n+8], f.Cookie)
	binary.BigEndian.PutUint16(dst[n+8:n+10], f.Priority)
	dst[n+10] = f.Reason
	dst[n+11] = f.TableID
	binary.BigEndian.PutUint32(dst[n+12:n+16], f.DurationSec)
	binary.BigEndian.PutUint32(dst[n+16:n+20], f.DurationNsec)
	binary.BigEndian.PutUint16(dst[n+20:n+22], f.IdleTimeout)
	binary.BigEndian.PutUint16(dst[n+22:n+24], f.HardTimeout)
	binary.BigEndian.PutUint64(dst[n+24:n+32], f.PacketCount)
	binary.BigEndian.PutUint64(dst[n+32:n+40], f.ByteCount)
	return matchOrEmpty(f.Match).AppendTo(dst), nil
}

// UnmarshalBody implements Message.
func (f *FlowRemoved) UnmarshalBody(b []byte) error {
	if len(b) < 40 {
		return fmt.Errorf("flow-removed: %w", errTooShort)
	}
	f.Cookie = binary.BigEndian.Uint64(b[0:8])
	f.Priority = binary.BigEndian.Uint16(b[8:10])
	f.Reason = b[10]
	f.TableID = b[11]
	f.DurationSec = binary.BigEndian.Uint32(b[12:16])
	f.DurationNsec = binary.BigEndian.Uint32(b[16:20])
	f.IdleTimeout = binary.BigEndian.Uint16(b[20:22])
	f.HardTimeout = binary.BigEndian.Uint16(b[22:24])
	f.PacketCount = binary.BigEndian.Uint64(b[24:32])
	f.ByteCount = binary.BigEndian.Uint64(b[32:40])
	m, _, err := unmarshalMatch(b[40:])
	if err != nil {
		return fmt.Errorf("flow-removed: %w", err)
	}
	f.Match = m
	return nil
}

// BarrierRequest forces ordering of preceding messages.
type BarrierRequest struct{}

var _ Message = (*BarrierRequest)(nil)

// Type implements Message.
func (*BarrierRequest) Type() MessageType { return TypeBarrierRequest }

// AppendBody implements Message.
func (*BarrierRequest) AppendBody(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBody implements Message.
func (*BarrierRequest) UnmarshalBody([]byte) error { return nil }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{}

var _ Message = (*BarrierReply)(nil)

// Type implements Message.
func (*BarrierReply) Type() MessageType { return TypeBarrierReply }

// AppendBody implements Message.
func (*BarrierReply) AppendBody(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBody implements Message.
func (*BarrierReply) UnmarshalBody([]byte) error { return nil }
