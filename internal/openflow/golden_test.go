package openflow

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// The golden encodings below are the wire bytes of each message as the
// package encoded them before every type moved onto the one append
// encoder. They pin the encoder byte for byte: a layout change, a pad byte
// left dirty or a length patched wrong shows up as a hex diff.

// appendCases are the relay and install shapes encoded with xid 42.
func appendCases() []Message {
	return []Message{
		&Hello{},
		sampleFlowMod(),
		samplePacketIn(),
		&PacketOut{
			BufferID: NoBuffer,
			InPort:   PortController,
			Actions:  []Action{&ActionOutput{Port: 1, MaxLen: 128}},
			Data:     []byte{1, 2, 3, 4},
		},
		&Raw{RawType: 0x63, Body: []byte{9, 8, 7}},
		&FlowMod{Command: FlowModDelete, TableID: AllTables, OutPort: PortAny, OutGroup: 0xffffffff},
	}
}

var appendGoldens = []string{
	"040000080000002a",
	"040e00980000002ad0f1000000000001ffffffffffffffff0100001e012c03e8" +
		"ffffffff00000000000000000000000000010047800000040000000380000606" +
		"0200000000028000080602000000000180000a0208008000140106800016040a" +
		"000001800018040a00000280001a02c00080001c0201bd000004001800000000" +
		"0000001000000002ffff0000000000000001000803000000",
	"040a006a0000002affffffff00400001000000000000d0f10001000c80000004" +
		"00000003000000000000abababababababababababababababababababababab" +
		"abababababababababababababababababababababababababababababababab" +
		"abababababababababab",
	"040d002c0000002afffffffffffffffd00100000000000000000001000000001" +
		"008000000000000001020304",
	"0463000b0000002a090807",
	"040e00380000002a00000000000000000000000000000000ff03000000000000" +
		"00000000ffffffffffffffff000000000001000400000000",
}

// seedGoldens are fuzzSeedMessages()[i] encoded with xid i+1.
var seedGoldens = []string{
	"0400000800000001",
	"04000010000000020001000800000010",
	"0401001700000003000100096261642072657175657374",
	"0402000c0000000470696e67",
	"0403000c00000005706f6e67",
	"0405000800000006",
	"040600200000000700204afe1234567800000100fe0000000000000000000000",
	"0407000800000008",
	"0408000c000000090000ffff",
	"0409000c0000000a00000080",
	"040a002e0000000bffffffff00040100000000000000002a0001000c80000004" +
		"00000003000000000000deadbeef",
	"040d002a0000000cfffffffffffffffd00100000000000000000001000000007" +
		"ffff000000000000cafe",
	"040e00880000000d000000000000000700000000000000000100001e00000064" +
		"ffffffffffffffffffffffff0000000000010033800000040000000380000a02" +
		"08008000140106800016040a000001800018040a00000280001a02ac5b80001c" +
		"0201bb000000000000040018000000000000001000000007ffff000000000000" +
		"0001000802000000",
	"040b00680000000e0000000000000007006400010000000a0000000000000000" +
		"000000000000000500000000000001f400010033800000040000000380000a02" +
		"08008000140106800016040a000001800018040a00000280001a02ac5b80001c" +
		"0201bb0000000000",
	"040c00500000000f020000000000000000000000000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"00000000000000000000000000000000",
	"04110010000000100100000000000003",
	"04120068000000110001000000000000ff000000ffffffffffffffff00000000" +
		"0000000000000000000000000000000000010033800000040000000380000a02" +
		"08008000140106800016040a000001800018040a00000280001a02ac5b80001c" +
		"0201bb0000000000",
	"04130090000000120001000000000000008001000000000a0000000000640000" +
		"00000000000000000000000000000007000000000000000500000000000001f4" +
		"00010033800000040000000380000a0208008000140106800016040a00000180" +
		"0018040a00000280001a02ac5b80001c0201bb00000000000004001800000000" +
		"0000001000000007ffff000000000000",
	"0414000800000013",
	"0415000800000014",
	"04040010000000150000000100000002",
}

// goldenExtraMessages adds the encoder branches fuzzSeedMessages does not
// reach: table, aggregate and opaque multipart bodies, a named port, the
// write/clear/opaque instructions and an opaque action.
func goldenExtraMessages() []Message {
	return []Message{
		&Error{ErrType: 4, Code: 2},
		&PortStatus{Reason: PortReasonAdd, Desc: PortDesc{
			PortNo: 9, HWAddr: netpkt.MAC{2, 0, 0, 0, 0, 9},
			Name: "a-port-name-longer-than-fifteen", Config: 1, State: PortStateLive}},
		&MultipartRequest{PartType: MultipartDesc},
		&MultipartRequest{PartType: MultipartPortStats, Flags: 1, RawBody: []byte{0, 0, 0, 1, 0, 0, 0, 0}},
		&MultipartRequest{PartType: MultipartAggregate, Flow: &FlowStatsRequest{
			TableID: 2, OutPort: PortAny, OutGroup: PortAny, Cookie: 5, CookieMask: 0xff}},
		&MultipartReply{PartType: MultipartTable, Tables: []*TableStatsEntry{
			{TableID: 0, ActiveCount: 7, LookupCount: 100, MatchedCount: 90},
			{TableID: 1, ActiveCount: 3, LookupCount: 10, MatchedCount: 1},
		}},
		&MultipartReply{PartType: MultipartAggregate,
			Aggregate: &AggregateStats{PacketCount: 11, ByteCount: 1100, FlowCount: 4}},
		&MultipartReply{PartType: MultipartDesc, RawBody: []byte("opaque description")},
		&FlowMod{Cookie: 9, TableID: 3, Command: FlowModModify, Priority: 7,
			BufferID: NoBuffer, OutPort: PortAny, OutGroup: PortAny,
			Instructions: []Instruction{
				&InstructionWriteActions{Actions: []Action{
					&ActionOutput{Port: PortFlood},
					&ActionRaw{Bytes: []byte{0, 0x19, 0, 8, 1, 2, 3, 4}},
				}},
				&InstructionClearActions{},
				&InstructionRaw{Bytes: []byte{0, 6, 0, 8, 0, 0, 0, 1}},
			}},
	}
}

// extraGoldens are goldenExtraMessages()[i] encoded with xid i+1.
var extraGoldens = []string{
	"0401000c0000000100040002",
	"040c005000000002000000000000000000000009000000000200000000090000" +
		"612d706f72742d6e616d652d6c6f6e0000000001000000040000000000000000" +
		"00000000000000000000000000000000",
	"04120010000000030000000000000000",
	"041200180000000400040001000000000000000100000000",
	"0412003800000005000200000000000002000000ffffffffffffffff00000000" +
		"000000000000000500000000000000ff0001000400000000",
	"0413004000000006000300000000000000000000000000070000000000000064" +
		"000000000000005a0100000000000003000000000000000a0000000000000001",
	"04130028000000070002000000000000000000000000000b000000000000044c" +
		"0000000400000000",
	"041300220000000800000000000000006f706171756520646573637269707469" +
		"6f6e",
	"040e006800000009000000000000000900000000000000000301000000000007" +
		"ffffffffffffffffffffffff0000000000010004000000000003002000000000" +
		"00000010fffffffb000000000000000000190008010203040005000800000000" +
		"0006000800000001",
}

// goldenCase is one message with its xid and pinned encoding.
type goldenCase struct {
	xid  uint32
	m    Message
	want []byte
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	add := func(msgs []Message, goldens []string, xid func(int) uint32) {
		if len(msgs) != len(goldens) {
			t.Fatalf("%d messages, %d goldens", len(msgs), len(goldens))
		}
		for i, m := range msgs {
			want, err := hex.DecodeString(goldens[i])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenCase{xid: xid(i), m: m, want: want})
		}
	}
	add(appendCases(), appendGoldens, func(int) uint32 { return 42 })
	add(fuzzSeedMessages(), seedGoldens, func(i int) uint32 { return uint32(i + 1) })
	add(goldenExtraMessages(), extraGoldens, func(i int) uint32 { return uint32(i + 1) })
	return out
}

// TestEncodeGoldens: Encode of every message is byte-identical to its
// golden encoding.
func TestEncodeGoldens(t *testing.T) {
	for _, c := range goldenCases(t) {
		got, err := Encode(c.xid, c.m)
		if err != nil {
			t.Fatalf("Encode %T: %v", c.m, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("Encode %T = %x\nwant       %x", c.m, got, c.want)
		}
	}
}

// TestAppendMessageMatchesEncode: AppendMessage must reproduce the golden
// bytes, must preserve (only append to) the destination prefix, and must
// not depend on fresh-allocation zeroing when the destination has stale
// capacity from a previous, larger message.
func TestAppendMessageMatchesEncode(t *testing.T) {
	for _, c := range goldenCases(t) {
		t.Run(fmt.Sprintf("%v", c.m.Type()), func(t *testing.T) {
			// Fresh destination with a prefix to preserve.
			prefix := []byte("PRE")
			got, err := AppendMessage(prefix, c.xid, c.m)
			if err != nil {
				t.Fatalf("AppendMessage: %v", err)
			}
			if !bytes.Equal(got[:3], prefix) {
				t.Fatalf("prefix clobbered: % x", got[:3])
			}
			if !bytes.Equal(got[3:], c.want) {
				t.Fatalf("append bytes = % x\nwant          % x", got[3:], c.want)
			}
			// Reused destination: fill capacity with junk first so any
			// encoder relying on fresh-make zeroing (pads, reserved
			// fields) would be caught.
			dirty := bytes.Repeat([]byte{0xff}, len(c.want)+64)
			got2, err := AppendMessage(dirty[:0], c.xid, c.m)
			if err != nil {
				t.Fatalf("AppendMessage(reused): %v", err)
			}
			if !bytes.Equal(got2, c.want) {
				t.Fatalf("reused-buffer bytes = % x\nwant                % x", got2, c.want)
			}
		})
	}
}
