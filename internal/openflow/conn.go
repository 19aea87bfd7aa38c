package openflow

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultFlushThreshold is the write-buffer size at which queued messages
// are flushed even without an explicit Flush: large enough to coalesce a
// burst into one write, small enough to bound relay-added latency.
const DefaultFlushThreshold = 32 << 10

// encBufPool recycles encode scratch buffers so Send/Queue encoding is
// zero-alloc at steady state. Buffers never escape: encoded bytes are
// written (or copied into the connection's write buffer) before Put.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Conn frames OpenFlow messages over a byte stream. Writes are safe for
// concurrent use; Recv and RecvFrame must be called from a single
// goroutine.
//
// Two write modes share one ordered stream: Send* encodes outside the
// write lock and writes through immediately (flushing anything queued
// first, so ordering is preserved); Queue*/QueueFrame append to a
// coalescing buffer that is written in one syscall on Flush or when it
// exceeds the flush threshold. The proxy relay queues and flushes on input
// idle, collapsing message bursts into single writes.
type Conn struct {
	writeMu sync.Mutex
	wbuf    []byte // coalescing write buffer, guarded by writeMu
	rw      io.ReadWriter
	br      *bufio.Reader
	nextXID atomic.Uint32
}

// NewConn wraps a byte stream (typically a net.Conn or net.Pipe end).
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{
		rw: rw,
		br: bufio.NewReader(rw),
	}
	c.nextXID.Store(1)
	return c
}

// Send writes m with a freshly allocated transaction id, which it returns.
func (c *Conn) Send(m Message) (uint32, error) {
	xid := c.nextXID.Add(1)
	return xid, c.SendXID(xid, m)
}

// SendXID writes m with the caller's transaction id (used for replies and
// for transparent proxying). Encoding happens outside the write lock into
// a pooled buffer; the lock is held only for the write itself. Queued
// bytes are flushed ahead of m so stream order is preserved.
//
//dfi:hotpath
func (c *Conn) SendXID(xid uint32, m Message) error {
	bp := encBufPool.Get().(*[]byte)
	b, err := AppendMessage((*bp)[:0], xid, m)
	if err == nil {
		err = c.writeThrough(b)
		if err != nil {
			err = sendErr(m.Type(), err)
		}
	}
	*bp = b[:0]
	encBufPool.Put(bp)
	return err
}

// writeThrough writes b to the stream, draining any queued bytes first.
// When the queue is empty (the common case) b is written directly without
// an intermediate copy.
func (c *Conn) writeThrough(b []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if len(c.wbuf) > 0 {
		c.wbuf = appendBytes(c.wbuf, b)
		return c.flushLocked()
	}
	_, err := c.rw.Write(b)
	return err
}

// sendErr wraps a stream write failure off the annotated send path.
func sendErr(t MessageType, err error) error {
	return fmt.Errorf("send %v: %w", t, err)
}

// Queue appends m (with a fresh transaction id, returned) to the write
// buffer without writing, unless the buffer crosses the flush threshold.
func (c *Conn) Queue(m Message) (uint32, error) {
	xid := c.nextXID.Add(1)
	return xid, c.QueueXID(xid, m)
}

// QueueXID appends m with the caller's transaction id to the coalescing
// write buffer. The bytes reach the stream on the next Flush, the next
// Send*, or when the buffer crosses the flush threshold.
//
//dfi:hotpath
func (c *Conn) QueueXID(xid uint32, m Message) error {
	bp := encBufPool.Get().(*[]byte)
	b, err := AppendMessage((*bp)[:0], xid, m)
	if err == nil {
		err = c.queueBytes(b)
	}
	*bp = b[:0]
	encBufPool.Put(bp)
	return err
}

// QueueFrame appends a raw frame to the coalescing write buffer: the
// relay's zero-copy forward path (no encode at all).
//
//dfi:hotpath
func (c *Conn) QueueFrame(f *Frame) error {
	return c.queueBytes(f.Bytes())
}

func (c *Conn) queueBytes(b []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.wbuf = appendBytes(c.wbuf, b)
	if len(c.wbuf) >= DefaultFlushThreshold {
		return c.flushLocked()
	}
	return nil
}

// Flush writes any queued bytes in one syscall.
func (c *Conn) Flush() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.flushLocked()
}

func (c *Conn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.rw.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// Buffered returns the bytes queued for write but not yet flushed.
func (c *Conn) Buffered() int {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return len(c.wbuf)
}

// InputBuffered returns the bytes already read from the stream but not yet
// consumed: 0 means the next Recv/RecvFrame will block, which is the relay
// loops' idle signal for flushing coalesced output.
func (c *Conn) InputBuffered() int {
	if c.br == nil {
		return 0
	}
	return c.br.Buffered()
}

// Recv reads the next message, decoded.
func (c *Conn) Recv() (uint32, Message, error) {
	if c.br == nil {
		return 0, nil, io.EOF
	}
	return ReadMessage(c.br)
}

// RecvFrame reads the next message as a raw frame into f, reusing f's
// buffer. The frame is valid until the next RecvFrame into f.
//
//dfi:hotpath
func (c *Conn) RecvFrame(f *Frame) error {
	if c.br == nil {
		return io.EOF
	}
	return ReadFrame(c.br, f)
}

// Close flushes queued bytes (best effort) and closes the underlying
// stream when it is an io.Closer.
func (c *Conn) Close() error {
	_ = c.Flush()
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// Handshake performs the initiator side of OpenFlow connection setup:
// exchange HELLOs, then issue FEATURES_REQUEST and return the reply.
// It is used by controllers (and the DFI Proxy when fronting a controller).
func (c *Conn) Handshake() (*FeaturesReply, error) {
	if _, err := c.Send(&Hello{}); err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	// Expect the peer HELLO first.
	_, m, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if _, ok := m.(*Hello); !ok {
		return nil, fmt.Errorf("handshake: expected HELLO, got %v", m.Type())
	}
	if _, err := c.Send(&FeaturesRequest{}); err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	for {
		_, m, err := c.Recv()
		if err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
		switch v := m.(type) {
		case *FeaturesReply:
			return v, nil
		case *EchoRequest:
			if err := c.SendXID(0, &EchoReply{Data: v.Data}); err != nil {
				return nil, fmt.Errorf("handshake: %w", err)
			}
		default:
			// Ignore anything else (e.g. port status) until features.
		}
	}
}
