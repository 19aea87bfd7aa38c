package openflow

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// accumCorpus builds a few wire messages of different shapes and sizes.
func accumCorpus(t testing.TB) [][]byte {
	t.Helper()
	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("ping-1")},
		&FlowMod{
			Cookie:   0xd0f1,
			TableID:  1,
			Command:  FlowModAdd,
			Priority: 500,
			BufferID: NoBuffer,
			Match:    &Match{InPort: U32(3), EthType: U16(0x0800)},
			Instructions: []Instruction{
				&InstructionGotoTable{TableID: 2},
			},
		},
		&PacketIn{
			BufferID: NoBuffer,
			Reason:   PacketInReasonNoMatch,
			TableID:  2,
			Match:    &Match{InPort: U32(7)},
			Data:     bytes.Repeat([]byte{0xab}, 600),
		},
		&EchoReply{},
	}
	var out [][]byte
	for i, m := range msgs {
		b, err := Encode(uint32(i+1), m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// feedAndCollect drives chunks through an accumulator and returns each
// emitted frame as a copy.
func feedAndCollect(t *testing.T, chunks [][]byte) [][]byte {
	t.Helper()
	var acc Accumulator
	var got [][]byte
	for _, ch := range chunks {
		err := acc.Feed(ch, func(f *Frame) error {
			got = append(got, append([]byte(nil), f.Bytes()...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func checkFrames(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emitted %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d mismatch:\n got %x\nwant %x", i, got[i], want[i])
		}
	}
}

func TestAccumulatorWholeFrames(t *testing.T) {
	corpus := accumCorpus(t)
	// One frame per chunk.
	got := feedAndCollect(t, corpus)
	checkFrames(t, got, corpus)
	// All frames in one chunk.
	var all []byte
	for _, b := range corpus {
		all = append(all, b...)
	}
	got = feedAndCollect(t, [][]byte{all})
	checkFrames(t, got, corpus)
}

func TestAccumulatorOneByteTrickle(t *testing.T) {
	corpus := accumCorpus(t)
	var chunks [][]byte
	for _, b := range corpus {
		for i := range b {
			chunks = append(chunks, b[i:i+1])
		}
	}
	got := feedAndCollect(t, chunks)
	checkFrames(t, got, corpus)
}

func TestAccumulatorSplitAcrossReads(t *testing.T) {
	corpus := accumCorpus(t)
	var all []byte
	for _, b := range corpus {
		all = append(all, b...)
	}
	// Every possible single split point.
	for cut := 1; cut < len(all); cut++ {
		got := feedAndCollect(t, [][]byte{all[:cut], all[cut:]})
		checkFrames(t, got, corpus)
	}
	// Random multi-splits.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var chunks [][]byte
		rest := all
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		got := feedAndCollect(t, chunks)
		checkFrames(t, got, corpus)
	}
}

func TestAccumulatorMalformedHeader(t *testing.T) {
	var acc Accumulator
	emit := func(*Frame) error { return nil }

	// Wrong version byte.
	if err := acc.Feed([]byte{0x01, 0, 0, 8, 0, 0, 0, 0}, emit); err == nil {
		t.Fatal("bad version accepted")
	}
	acc.Reset()

	// Length below the header size.
	if err := acc.Feed([]byte{Version, 0, 0, 4, 0, 0, 0, 0}, emit); err == nil {
		t.Fatal("undersized length accepted")
	}
	acc.Reset()

	// A malformed header *after* a valid frame still fails, and the valid
	// frame is still delivered first.
	good, err := Encode(9, &Hello{})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	chunk := append(append([]byte(nil), good...), 0x01, 0, 0, 8, 0, 0, 0, 0)
	if err := acc.Feed(chunk, func(*Frame) error { frames++; return nil }); err == nil {
		t.Fatal("bad trailing header accepted")
	}
	if frames != 1 {
		t.Fatalf("delivered %d frames before the malformed header, want 1", frames)
	}
}

func TestAccumulatorEmitErrorStopsWalk(t *testing.T) {
	corpus := accumCorpus(t)
	var all []byte
	for _, b := range corpus {
		all = append(all, b...)
	}
	boom := errors.New("boom")
	var acc Accumulator
	frames := 0
	err := acc.Feed(all, func(*Frame) error {
		frames++
		if frames == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if frames != 2 {
		t.Fatalf("emit ran %d times after error, want 2", frames)
	}
}

// TestAccumulatorMatchesReadFrame pins Feed's validation to ReadFrame's:
// any chunking of a byte stream must yield exactly the frames the blocking
// reader would produce.
func TestAccumulatorMatchesReadFrame(t *testing.T) {
	corpus := accumCorpus(t)
	var all []byte
	for _, b := range corpus {
		all = append(all, b...)
	}
	var want [][]byte
	r := bytes.NewReader(all)
	for {
		var f Frame
		if err := ReadFrame(r, &f); err != nil {
			break
		}
		want = append(want, append([]byte(nil), f.Bytes()...))
	}
	got := feedAndCollect(t, [][]byte{all})
	checkFrames(t, got, want)
}

// TestAccumulatorSteadyStateZeroAlloc: once the carry buffer has grown, a
// whole-frame feed and a split-frame feed both run without allocating —
// the read-path contract of poller-driven readers (the benchmark rig).
func TestAccumulatorSteadyStateZeroAlloc(t *testing.T) {
	wire, err := Encode(3, &EchoRequest{Data: []byte("steady")})
	if err != nil {
		t.Fatal(err)
	}
	var acc Accumulator
	emit := func(*Frame) error { return nil }
	prime := func() {
		if err := acc.Feed(wire, emit); err != nil {
			t.Fatal(err)
		}
		if err := acc.Feed(wire[:5], emit); err != nil {
			t.Fatal(err)
		}
		if err := acc.Feed(wire[5:], emit); err != nil {
			t.Fatal(err)
		}
	}
	prime()
	if allocs := testing.AllocsPerRun(200, prime); allocs != 0 {
		t.Fatalf("steady-state Feed allocates %.1f objects/op, want 0", allocs)
	}
}
