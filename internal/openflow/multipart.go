package openflow

import (
	"encoding/binary"
	"fmt"
)

// Multipart types (ofp_multipart_type).
const (
	MultipartDesc      uint16 = 0
	MultipartFlow      uint16 = 1
	MultipartAggregate uint16 = 2
	MultipartTable     uint16 = 3
	MultipartPortStats uint16 = 4
)

// MultipartRequest is an ofp_multipart_request. Flow-stats and
// aggregate-stats requests are modeled (the DFI Proxy must rewrite their
// table ids); table-stats requests have an empty body; other subtypes are
// carried verbatim in RawBody.
type MultipartRequest struct {
	PartType uint16
	Flags    uint16
	// Flow is set when PartType is MultipartFlow or MultipartAggregate
	// (the two share the ofp_flow_stats_request body).
	Flow *FlowStatsRequest
	// RawBody carries the body verbatim for other subtypes.
	RawBody []byte
}

var _ Message = (*MultipartRequest)(nil)

// FlowStatsRequest is the body of a flow-stats multipart request.
type FlowStatsRequest struct {
	TableID    uint8
	OutPort    uint32
	OutGroup   uint32
	Cookie     uint64
	CookieMask uint64
	Match      *Match
}

// AllTables selects every flow table in stats requests (OFPTT_ALL).
const AllTables uint8 = 0xff

// Type implements Message.
func (*MultipartRequest) Type() MessageType { return TypeMultipartReq }

// AppendBody implements Message.
func (m *MultipartRequest) AppendBody(dst []byte) ([]byte, error) {
	dst = appendMultipartHeader(dst, m.PartType, m.Flags)
	if (m.PartType != MultipartFlow && m.PartType != MultipartAggregate) || m.Flow == nil {
		return appendBytes(dst, m.RawBody), nil
	}
	n := len(dst)
	dst = grow(dst, 32) // pad bytes zeroed by grow
	dst[n] = m.Flow.TableID
	binary.BigEndian.PutUint32(dst[n+4:n+8], m.Flow.OutPort)
	binary.BigEndian.PutUint32(dst[n+8:n+12], m.Flow.OutGroup)
	binary.BigEndian.PutUint64(dst[n+16:n+24], m.Flow.Cookie)
	binary.BigEndian.PutUint64(dst[n+24:n+32], m.Flow.CookieMask)
	return matchOrEmpty(m.Flow.Match).AppendTo(dst), nil
}

// appendMultipartHeader encodes the type/flags/pad prefix that multipart
// requests and replies share.
func appendMultipartHeader(dst []byte, partType, flags uint16) []byte {
	n := len(dst)
	dst = grow(dst, 8)
	binary.BigEndian.PutUint16(dst[n:n+2], partType)
	binary.BigEndian.PutUint16(dst[n+2:n+4], flags)
	return dst
}

// UnmarshalBody implements Message.
func (m *MultipartRequest) UnmarshalBody(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("multipart request: %w", errTooShort)
	}
	m.PartType = binary.BigEndian.Uint16(b[0:2])
	m.Flags = binary.BigEndian.Uint16(b[2:4])
	body := b[8:]
	if m.PartType == MultipartFlow || m.PartType == MultipartAggregate {
		if len(body) < 32 {
			return fmt.Errorf("flow stats request: %w", errTooShort)
		}
		match, _, err := unmarshalMatch(body[32:])
		if err != nil {
			return fmt.Errorf("flow stats request: %w", err)
		}
		m.Flow = &FlowStatsRequest{
			TableID:    body[0],
			OutPort:    binary.BigEndian.Uint32(body[4:8]),
			OutGroup:   binary.BigEndian.Uint32(body[8:12]),
			Cookie:     binary.BigEndian.Uint64(body[16:24]),
			CookieMask: binary.BigEndian.Uint64(body[24:32]),
			Match:      match,
		}
		return nil
	}
	m.RawBody = append([]byte(nil), body...)
	return nil
}

// MultipartReply is an ofp_multipart_reply. Flow, table and aggregate
// stats are modeled; other subtypes are carried verbatim in RawBody.
type MultipartReply struct {
	PartType uint16
	Flags    uint16
	// Flows is set when PartType == MultipartFlow.
	Flows []*FlowStatsEntry
	// Tables is set when PartType == MultipartTable.
	Tables []*TableStatsEntry
	// Aggregate is set when PartType == MultipartAggregate.
	Aggregate *AggregateStats
	// RawBody carries the body verbatim for other subtypes.
	RawBody []byte
}

var _ Message = (*MultipartReply)(nil)

// FlowStatsEntry is one ofp_flow_stats record in a flow-stats reply.
type FlowStatsEntry struct {
	TableID      uint8
	DurationSec  uint32
	DurationNsec uint32
	Priority     uint16
	IdleTimeout  uint16
	HardTimeout  uint16
	Flags        uint16
	Cookie       uint64
	PacketCount  uint64
	ByteCount    uint64
	Match        *Match
	Instructions []Instruction
}

// Type implements Message.
func (*MultipartReply) Type() MessageType { return TypeMultipartReply }

const flowStatsFixedLen = 48

// AppendBody implements Message.
func (m *MultipartReply) AppendBody(dst []byte) ([]byte, error) {
	dst = appendMultipartHeader(dst, m.PartType, m.Flags)
	switch {
	case m.PartType == MultipartFlow:
		for _, fs := range m.Flows {
			dst = fs.appendTo(dst)
		}
	case m.PartType == MultipartTable:
		for _, ts := range m.Tables {
			dst = ts.appendTo(dst)
		}
	case m.PartType == MultipartAggregate && m.Aggregate != nil:
		dst = m.Aggregate.appendTo(dst)
	default:
		dst = appendBytes(dst, m.RawBody)
	}
	return dst, nil
}

// appendTo encodes one ofp_flow_stats record, patching its length after
// the match and instructions are appended.
func (fs *FlowStatsEntry) appendTo(dst []byte) []byte {
	n := len(dst)
	dst = grow(dst, flowStatsFixedLen) // pad bytes zeroed by grow
	dst[n+2] = fs.TableID
	binary.BigEndian.PutUint32(dst[n+4:n+8], fs.DurationSec)
	binary.BigEndian.PutUint32(dst[n+8:n+12], fs.DurationNsec)
	binary.BigEndian.PutUint16(dst[n+12:n+14], fs.Priority)
	binary.BigEndian.PutUint16(dst[n+14:n+16], fs.IdleTimeout)
	binary.BigEndian.PutUint16(dst[n+16:n+18], fs.HardTimeout)
	binary.BigEndian.PutUint16(dst[n+18:n+20], fs.Flags)
	binary.BigEndian.PutUint64(dst[n+24:n+32], fs.Cookie)
	binary.BigEndian.PutUint64(dst[n+32:n+40], fs.PacketCount)
	binary.BigEndian.PutUint64(dst[n+40:n+48], fs.ByteCount)
	dst = matchOrEmpty(fs.Match).AppendTo(dst)
	dst = appendInstructions(dst, fs.Instructions)
	binary.BigEndian.PutUint16(dst[n:n+2], uint16(len(dst)-n))
	return dst
}

// UnmarshalBody implements Message.
func (m *MultipartReply) UnmarshalBody(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("multipart reply: %w", errTooShort)
	}
	m.PartType = binary.BigEndian.Uint16(b[0:2])
	m.Flags = binary.BigEndian.Uint16(b[2:4])
	body := b[8:]
	switch m.PartType {
	case MultipartTable:
		tables, err := unmarshalTableStats(body)
		if err != nil {
			return err
		}
		m.Tables = tables
		return nil
	case MultipartAggregate:
		agg, err := unmarshalAggregateStats(body)
		if err != nil {
			return err
		}
		m.Aggregate = agg
		return nil
	case MultipartFlow:
		// Parsed below.
	default:
		m.RawBody = append([]byte(nil), body...)
		return nil
	}
	m.Flows = nil
	for len(body) > 0 {
		if len(body) < flowStatsFixedLen {
			return fmt.Errorf("flow stats entry: %w", errTooShort)
		}
		entryLen := int(binary.BigEndian.Uint16(body[0:2]))
		if entryLen < flowStatsFixedLen || entryLen > len(body) {
			return fmt.Errorf("flow stats entry: bad length %d", entryLen)
		}
		entry := body[:entryLen]
		body = body[entryLen:]
		match, n, err := unmarshalMatch(entry[flowStatsFixedLen:])
		if err != nil {
			return fmt.Errorf("flow stats entry: %w", err)
		}
		instrs, err := decodeInstructions(entry[flowStatsFixedLen+n:])
		if err != nil {
			return fmt.Errorf("flow stats entry: %w", err)
		}
		m.Flows = append(m.Flows, &FlowStatsEntry{
			TableID:      entry[2],
			DurationSec:  binary.BigEndian.Uint32(entry[4:8]),
			DurationNsec: binary.BigEndian.Uint32(entry[8:12]),
			Priority:     binary.BigEndian.Uint16(entry[12:14]),
			IdleTimeout:  binary.BigEndian.Uint16(entry[14:16]),
			HardTimeout:  binary.BigEndian.Uint16(entry[16:18]),
			Flags:        binary.BigEndian.Uint16(entry[18:20]),
			Cookie:       binary.BigEndian.Uint64(entry[24:32]),
			PacketCount:  binary.BigEndian.Uint64(entry[32:40]),
			ByteCount:    binary.BigEndian.Uint64(entry[40:48]),
			Match:        match,
			Instructions: instrs,
		})
	}
	return nil
}
