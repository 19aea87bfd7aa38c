package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame is one OpenFlow message as raw wire bytes (header + body). The DFI
// Proxy's relay operates on frames: the table-space rewrites (flow-mod,
// packet-in, flow-removed, table-mod table ids) are applied in place and
// the bytes forwarded verbatim, so steady-state relaying performs no
// decode, no re-encode and no allocation. These in-place rewrites are the
// only rewrites of those types; a frame they reject is malformed. Message
// types that need structural interpretation (features reply, multipart
// filtering, table-0 packet-ins) are decoded.
//
// A Frame's buffer is reused by the next ReadFrame into it; consumers that
// retain message contents must Decode (every UnmarshalBody deep-copies).
type Frame struct {
	buf []byte
}

// Type returns the frame's ofp_type. Valid only after a successful read.
func (f *Frame) Type() MessageType { return MessageType(f.buf[1]) }

// XID returns the frame's transaction id.
func (f *Frame) XID() uint32 { return binary.BigEndian.Uint32(f.buf[4:8]) }

// Len returns the total wire length (header + body).
func (f *Frame) Len() int { return len(f.buf) }

// Bytes returns the frame's wire bytes. The slice aliases the frame's
// reusable buffer: it is valid until the next read into this frame.
func (f *Frame) Bytes() []byte { return f.buf }

// Body returns the bytes after the 8-byte header, aliasing the buffer.
func (f *Frame) Body() []byte { return f.buf[headerLen:] }

// SetBytes loads b (a full wire message) into the frame, copying it into
// the frame's reusable buffer.
func (f *Frame) SetBytes(b []byte) {
	f.buf = appendBytes(f.buf[:0], b)
}

// Alias binds the frame to b without copying: the frame views b directly,
// so in-place rewrites (Shift*) mutate b and the frame is valid only while
// b is. Accumulator uses this to walk frames straight out of a
// read chunk; everyone else should prefer SetBytes. b must be a complete,
// header-valid wire message.
//
//dfi:hotpath
func (f *Frame) Alias(b []byte) { f.buf = b }

// AppendMessageTo encodes m into the frame's reusable buffer. It exists for
// tests and harnesses that build frames from typed messages.
func (f *Frame) AppendMessageTo(xid uint32, m Message) error {
	b, err := AppendMessage(f.buf[:0], xid, m)
	if err != nil {
		return err
	}
	f.buf = b
	return nil
}

// Decode parses the frame into a typed Message. The result never aliases
// the frame's buffer.
func (f *Frame) Decode() (uint32, Message, error) {
	t := f.Type()
	m := newMessage(t)
	if err := m.UnmarshalBody(f.Body()); err != nil {
		return 0, nil, fmt.Errorf("openflow: decode %v: %w", t, err)
	}
	return f.XID(), m, nil
}

// ReadFrame reads one wire message from r into f, reusing f's buffer. It
// performs the same header validation as ReadMessage but no body decode.
//
//dfi:hotpath
func ReadFrame(r io.Reader, f *Frame) error {
	hdr := grow(f.buf[:0], headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		f.buf = f.buf[:0]
		return err
	}
	if hdr[0] != Version {
		f.buf = f.buf[:0]
		return badVersionErr(hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen {
		f.buf = f.buf[:0]
		return badLengthErr(length)
	}
	b := grow(hdr, length-headerLen)
	if _, err := io.ReadFull(r, b[headerLen:]); err != nil {
		f.buf = b[:0]
		return readBodyErr(err)
	}
	f.buf = b
	return nil
}

// badVersionErr, badLengthErr and readBodyErr keep the fmt calls off the
// annotated read path.
func badVersionErr(v uint8) error {
	return fmt.Errorf("openflow: unsupported version 0x%02x", v)
}

func badLengthErr(length int) error {
	return fmt.Errorf("openflow: bad message length %d", length)
}

func readBodyErr(err error) error {
	return fmt.Errorf("openflow: read body: %w", err)
}

// shiftTableID applies delta to a table id, clamped never below 0 (table 0
// is DFI's).
func shiftTableID(t uint8, delta int) uint8 {
	s := int(t) + delta
	if s < 0 {
		s = 0
	}
	return uint8(s)
}

// Wire offsets of the table-id byte within each rewritable body
// (OpenFlow 1.3.5 struct layouts; see messages.go for the field order).
const (
	flowModFixedLen     = 40 // ofp_flow_mod body before the match
	flowModTableOff     = 16
	packetInTableOff    = 7
	flowRemovedTableOff = 11
	tableModTableOff    = 0
	matchOffInFlowMod   = flowModFixedLen
)

// PacketInTableID returns the packet-in frame's table id; ok is false when
// the frame is not a packet-in or is too short to carry one.
func (f *Frame) PacketInTableID() (uint8, bool) {
	b := f.Body()
	if f.Type() != TypePacketIn || len(b) <= packetInTableOff {
		return 0, false
	}
	return b[packetInTableOff], true
}

// ShiftPacketInTable rewrites the packet-in table id in place by delta.
// It reports whether the rewrite was applied.
//
//dfi:hotpath
func (f *Frame) ShiftPacketInTable(delta int) bool {
	b := f.Body()
	if f.Type() != TypePacketIn || len(b) <= packetInTableOff {
		return false
	}
	b[packetInTableOff] = shiftTableID(b[packetInTableOff], delta)
	return true
}

// FlowRemovedTableID returns the flow-removed frame's table id; ok is
// false when the frame is not a flow-removed or is too short.
func (f *Frame) FlowRemovedTableID() (uint8, bool) {
	b := f.Body()
	if f.Type() != TypeFlowRemoved || len(b) <= flowRemovedTableOff {
		return 0, false
	}
	return b[flowRemovedTableOff], true
}

// ShiftFlowRemovedTable rewrites the flow-removed table id in place.
//
//dfi:hotpath
func (f *Frame) ShiftFlowRemovedTable(delta int) bool {
	b := f.Body()
	if f.Type() != TypeFlowRemoved || len(b) <= flowRemovedTableOff {
		return false
	}
	b[flowRemovedTableOff] = shiftTableID(b[flowRemovedTableOff], delta)
	return true
}

// ShiftTableModTable rewrites the table-mod table id in place by delta,
// leaving OFPTT_ALL (0xff) untouched.
//
//dfi:hotpath
func (f *Frame) ShiftTableModTable(delta int) bool {
	b := f.Body()
	if f.Type() != TypeTableMod || len(b) <= tableModTableOff {
		return false
	}
	if b[tableModTableOff] != AllTables {
		b[tableModTableOff] = shiftTableID(b[tableModTableOff], delta)
	}
	return true
}

// ShiftFlowModTables rewrites a flow-mod frame's table space in place:
// the table id (unless OFPTT_ALL) and every goto-table instruction target
// shift by delta. Returns false when the frame is not a structurally valid
// flow-mod, in which case nothing was modified; Decode rejects every such
// frame too (FuzzFrameRewriteAgreesWithDecode).
//
//dfi:hotpath
func (f *Frame) ShiftFlowModTables(delta int) bool {
	b := f.Body()
	if f.Type() != TypeFlowMod || len(b) < flowModFixedLen+4 {
		return false
	}
	// Walk the match to find the instruction list. ofp_match length covers
	// type+length+oxms and excludes the trailing pad.
	if binary.BigEndian.Uint16(b[matchOffInFlowMod:matchOffInFlowMod+2]) != 1 {
		return false // not OFPMT_OXM
	}
	mlen := int(binary.BigEndian.Uint16(b[matchOffInFlowMod+2 : matchOffInFlowMod+4]))
	if mlen < 4 {
		return false
	}
	padded := (mlen + 7) / 8 * 8
	ioff := matchOffInFlowMod + padded
	if ioff > len(b) {
		return false
	}
	// Validate the whole instruction list before mutating anything, so a
	// malformed frame is left untouched.
	for rest := b[ioff:]; len(rest) > 0; {
		if len(rest) < 4 {
			return false
		}
		ilen := int(binary.BigEndian.Uint16(rest[2:4]))
		if ilen < 8 || ilen > len(rest) {
			return false
		}
		rest = rest[ilen:]
	}
	if b[flowModTableOff] != AllTables {
		b[flowModTableOff] = shiftTableID(b[flowModTableOff], delta)
	}
	for rest := b[ioff:]; len(rest) > 0; {
		itype := binary.BigEndian.Uint16(rest[0:2])
		ilen := int(binary.BigEndian.Uint16(rest[2:4]))
		if itype == instrTypeGotoTable {
			rest[4] = shiftTableID(rest[4], delta)
		}
		rest = rest[ilen:]
	}
	return true
}
