package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/server"
)

// wireConn is one binary-wire client stream with windowed acks. A reader
// goroutine owns every inbound frame: ACK frames stamp each arrival they
// cover and count refused ones, and the JSON result frame ends the stream.
type wireConn struct {
	conn    net.Conn
	bw      *bufio.Writer
	base    time.Time
	payload []byte // frame-encoding scratch (writer side)

	mu        sync.Mutex
	cond      *sync.Cond
	ackAt     []int64 // per-seq ack time in ns since base; nil = not recorded
	acked     int     // arrivals covered by ACK frames
	refused   int     // of those, arrivals acked with a non-zero code
	ackFrames int
	result    *server.TCPResult
	rdErr     error
	done      chan struct{}
}

// dialWire opens a stream and negotiates windowed acks. ackAt, when
// non-nil, must have room for every arrival the stream will carry.
func dialWire(addr string, window int, base time.Time, ackAt []int64) (*wireConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{
		conn:  conn,
		bw:    bufio.NewWriterSize(conn, 1<<16),
		base:  base,
		ackAt: ackAt,
		done:  make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	if err := server.WriteFrame(c.bw, server.AppendWireWindow(nil, window, false)); err != nil {
		conn.Close()
		return nil, err
	}
	go c.read()
	return c, nil
}

func (c *wireConn) read() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 1<<16)
	buf := make([]byte, 0, 4096)
	for {
		frame, err := server.ReadFrame(br, buf)
		if err != nil {
			c.fail(err)
			return
		}
		if !server.IsBinaryFrame(frame) {
			var res server.TCPResult
			if err := json.Unmarshal(frame, &res); err != nil {
				c.fail(fmt.Errorf("decoding result frame: %v", err))
				return
			}
			c.mu.Lock()
			c.result = &res
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		op, body, err := server.WireFrameKind(frame)
		if err == nil && op != server.WireAck {
			err = fmt.Errorf("unexpected binary op 0x%02x from server", op)
		}
		var ack server.WireAckFrame
		if err == nil {
			ack, err = server.DecodeWireAck(body)
		}
		if err != nil {
			c.fail(err)
			return
		}
		now := int64(time.Since(c.base))
		c.mu.Lock()
		for i, code := range ack.Codes {
			if code != server.WireAckOK {
				c.refused++
			} else if c.ackAt != nil {
				c.ackAt[int(ack.FirstSeq)+i] = now
			}
		}
		c.acked += len(ack.Codes)
		c.ackFrames++
		c.cond.Broadcast()
		c.mu.Unlock()
		buf = frame[:0]
	}
}

func (c *wireConn) fail(err error) {
	c.mu.Lock()
	c.rdErr = err
	c.cond.Broadcast()
	c.mu.Unlock()
}

// bind declares ref ↦ tenant on the stream.
func (c *wireConn) bind(ref uint64, tenant string) error {
	c.payload = server.AppendWireBind(c.payload[:0], ref, tenant)
	return server.WriteFrame(c.bw, c.payload)
}

// batch writes one BATCH frame for the tenant bound to ref.
func (c *wireConn) batch(ref uint64, items []server.WireItem) error {
	c.payload = server.AppendWireBatch(c.payload[:0], ref, items)
	return server.WriteFrame(c.bw, c.payload)
}

// waitAcked blocks until at least n arrivals are acked, pushing buffered
// frames out first so the server can see them.
func (c *wireConn) waitAcked(n int) error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.acked < n && c.rdErr == nil && c.result == nil {
		c.cond.Wait()
	}
	if c.acked < n {
		if c.rdErr != nil {
			return fmt.Errorf("ack stream: %v", c.rdErr)
		}
		return fmt.Errorf("stream ended after %d of %d acks: %s", c.acked, n, c.result.Error)
	}
	return nil
}

// finish half-closes the stream, waits for the result frame and checks
// that the server accepted, served and acked exactly sent arrivals. It
// returns how many arrivals were refused in ACK codes.
func (c *wireConn) finish(sent int) (refused int, err error) {
	defer c.conn.Close()
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	if err := c.conn.(*net.TCPConn).CloseWrite(); err != nil {
		return 0, err
	}
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.result == nil:
		return c.refused, fmt.Errorf("stream ended without a result frame: %v", c.rdErr)
	case !c.result.OK:
		return c.refused, fmt.Errorf("server rejected the stream: %s", c.result.Error)
	case c.result.Arrivals != sent:
		return c.refused, fmt.Errorf("server accepted %d of %d arrivals", c.result.Arrivals, sent)
	case c.acked != sent:
		return c.refused, fmt.Errorf("server acked %d of %d arrivals", c.acked, sent)
	}
	return c.refused, nil
}

// createTenants registers tenants with JSON create frames on one stream and
// waits for its result frame.
func createTenants(addr string, frames [][]byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<16)
	for _, f := range frames {
		if err := server.WriteFrame(bw, f); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	frame, err := server.ReadFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("create stream: %v", err)
	}
	var res server.TCPResult
	if err := json.Unmarshal(frame, &res); err != nil {
		return fmt.Errorf("create stream result: %v", err)
	}
	if !res.OK {
		return fmt.Errorf("create stream: %s", res.Error)
	}
	return nil
}
