package openflow

import (
	"encoding/binary"
	"fmt"
)

// TableStatsEntry is one ofp_table_stats record: per-table occupancy and
// lookup counters. The DFI Proxy hides table 0's row and shifts the rest.
type TableStatsEntry struct {
	TableID      uint8
	ActiveCount  uint32
	LookupCount  uint64
	MatchedCount uint64
}

const tableStatsLen = 24

func (t *TableStatsEntry) appendTo(dst []byte) []byte {
	n := len(dst)
	dst = grow(dst, tableStatsLen)
	dst[n] = t.TableID
	binary.BigEndian.PutUint32(dst[n+4:n+8], t.ActiveCount)
	binary.BigEndian.PutUint64(dst[n+8:n+16], t.LookupCount)
	binary.BigEndian.PutUint64(dst[n+16:n+24], t.MatchedCount)
	return dst
}

func unmarshalTableStats(b []byte) ([]*TableStatsEntry, error) {
	if len(b)%tableStatsLen != 0 {
		return nil, fmt.Errorf("table stats: %d bytes not a multiple of %d", len(b), tableStatsLen)
	}
	var out []*TableStatsEntry
	for off := 0; off < len(b); off += tableStatsLen {
		e := b[off : off+tableStatsLen]
		out = append(out, &TableStatsEntry{
			TableID:      e[0],
			ActiveCount:  binary.BigEndian.Uint32(e[4:8]),
			LookupCount:  binary.BigEndian.Uint64(e[8:16]),
			MatchedCount: binary.BigEndian.Uint64(e[16:24]),
		})
	}
	return out, nil
}

// AggregateStats is the body of an aggregate-flow-stats reply
// (ofp_aggregate_stats_reply).
type AggregateStats struct {
	PacketCount uint64
	ByteCount   uint64
	FlowCount   uint32
}

const aggregateStatsLen = 24

func (a *AggregateStats) appendTo(dst []byte) []byte {
	n := len(dst)
	dst = grow(dst, aggregateStatsLen)
	binary.BigEndian.PutUint64(dst[n:n+8], a.PacketCount)
	binary.BigEndian.PutUint64(dst[n+8:n+16], a.ByteCount)
	binary.BigEndian.PutUint32(dst[n+16:n+20], a.FlowCount)
	return dst
}

func unmarshalAggregateStats(b []byte) (*AggregateStats, error) {
	if len(b) < aggregateStatsLen {
		return nil, fmt.Errorf("aggregate stats: %w", errTooShort)
	}
	return &AggregateStats{
		PacketCount: binary.BigEndian.Uint64(b[0:8]),
		ByteCount:   binary.BigEndian.Uint64(b[8:16]),
		FlowCount:   binary.BigEndian.Uint32(b[16:20]),
	}, nil
}
