package openflow

// Accumulator reassembles OpenFlow frames from arbitrarily fragmented byte
// chunks, for readers that pull bytes off non-blocking sockets instead of
// through a Conn (the benchmark rig's poller-driven switch and controller
// peers). Reads from a non-blocking socket arrive as whatever the kernel had
// buffered — half a header, three frames and a tail, one byte — and Feed
// walks complete frames out of each chunk in place, carrying partial bytes
// over to the next call in a per-connection buffer.
//
// Feed performs the same header validation as ReadFrame (version byte,
// length bounds); a malformed header poisons the stream and fails the
// connection, exactly as the blocking reader would.
//
// Frames handed to the callback alias either the caller's chunk or the
// accumulator's carry buffer: they are valid only for the duration of the
// callback, matching the Frame-reuse contract of Conn.RecvFrame (consumers
// that retain contents must Decode, which deep-copies).
type Accumulator struct {
	// partial carries bytes of an incomplete frame between Feed calls.
	// Empty at steady state when frames arrive whole.
	partial []byte
	// frame is the reusable header handed to the callback; its buffer
	// aliases fed chunks and is never retained.
	frame Frame
}

// Buffered returns the partial-frame bytes carried between Feed calls.
func (a *Accumulator) Buffered() int { return len(a.partial) }

// Reset drops any carried partial bytes (connection teardown/reuse).
func (a *Accumulator) Reset() { a.partial = a.partial[:0] }

// Feed consumes one chunk of stream bytes, invoking emit once per complete
// frame, in stream order. It returns the first error from emit or a header
// validation failure; after an error the accumulator must be Reset before
// reuse.
//
//dfi:hotpath
func (a *Accumulator) Feed(chunk []byte, emit func(*Frame) error) error {
	if len(a.partial) > 0 {
		// Complete the carried frame first. Appending the whole chunk keeps
		// the walk linear; the carry buffer is bounded by one maximum-size
		// frame plus one read chunk.
		a.partial = appendBytes(a.partial, chunk)
		rest, err := a.consume(a.partial, emit)
		n := copy(a.partial, rest)
		a.partial = a.partial[:n]
		return err
	}
	rest, err := a.consume(chunk, emit)
	if err == nil && len(rest) > 0 {
		a.partial = appendBytes(a.partial[:0], rest)
	}
	return err
}

// consume walks complete frames off the front of b, returning the
// unconsumed tail (an incomplete frame, possibly empty).
//
//dfi:hotpath
func (a *Accumulator) consume(b []byte, emit func(*Frame) error) ([]byte, error) {
	for len(b) >= headerLen {
		if b[0] != Version {
			return b, badVersionErr(b[0])
		}
		length := int(uint16(b[2])<<8 | uint16(b[3]))
		if length < headerLen {
			return b, badLengthErr(length)
		}
		if len(b) < length {
			break
		}
		a.frame.Alias(b[:length])
		if err := emit(&a.frame); err != nil {
			return b[length:], err
		}
		b = b[length:]
	}
	return b, nil
}
