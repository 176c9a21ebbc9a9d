package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
)

// binStream is a hand-rolled binary-wire client for negotiation tests: it
// owns one connection, tracks refs, and reads every inbound frame (acks and
// the final result) after half-close.
type binStream struct {
	t    *testing.T
	conn *net.TCPConn
	bw   *bufio.Writer
	refs map[string]uint64
	buf  []byte
}

func dialBin(t *testing.T, addr string) *binStream {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &binStream{t: t, conn: conn.(*net.TCPConn), bw: bufio.NewWriter(conn), refs: map[string]uint64{}}
	t.Cleanup(func() { conn.Close() })
	return c
}

func (c *binStream) frame(payload []byte) {
	c.t.Helper()
	if err := WriteFrame(c.bw, payload); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binStream) window(w int, wantLatency bool) {
	c.frame(AppendWireWindow(nil, w, wantLatency))
}

// ref binds tenant on first use and returns its stream-local ref.
func (c *binStream) ref(tenant string) uint64 {
	r, ok := c.refs[tenant]
	if !ok {
		r = uint64(len(c.refs))
		c.refs[tenant] = r
		c.frame(AppendWireBind(nil, r, tenant))
	}
	return r
}

func (c *binStream) arrive(tenant string, point int, demands []int) {
	c.frame(AppendWireArrive(nil, c.ref(tenant), point, demands))
}

func (c *binStream) batch(tenant string, items []WireItem) {
	c.frame(AppendWireBatch(nil, c.ref(tenant), items))
}

func (c *binStream) jsonOp(op engine.Op) {
	c.t.Helper()
	payload, err := json.Marshal(op)
	if err != nil {
		c.t.Fatal(err)
	}
	c.frame(payload)
}

// finish half-closes, drains acks, and returns the result frame plus the
// collected ack frames.
func (c *binStream) finish() (TCPResult, []WireAckFrame) {
	c.t.Helper()
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	if err := c.conn.CloseWrite(); err != nil {
		c.t.Fatal(err)
	}
	br := bufio.NewReader(c.conn)
	var acks []WireAckFrame
	for {
		frame, err := ReadFrame(br, c.buf)
		if err != nil {
			c.t.Fatalf("reading result: %v", err)
		}
		if IsBinaryFrame(frame) {
			op, body, err := WireFrameKind(frame)
			if err != nil || op != WireAck {
				c.t.Fatalf("server sent op 0x%02x (err %v), want ack", op, err)
			}
			ack, err := DecodeWireAck(body)
			if err != nil {
				c.t.Fatalf("decoding ack: %v", err)
			}
			acks = append(acks, ack)
			continue
		}
		var res TCPResult
		if err := json.Unmarshal(frame, &res); err != nil {
			c.t.Fatal(err)
		}
		return res, acks
	}
}

// TestBinaryWirePathMatchesStdinPath is the tentpole contract for the binary
// wire: arrivals streamed as BIND/ARRIVE/BATCH frames — windowed or not —
// must produce tenant snapshots byte-identical to the stdin op-stream path
// under the same seed.
func TestBinaryWirePathMatchesStdinPath(t *testing.T) {
	tr := testTrace(59, 90, 5, 11)
	const tenants = 4
	ops := traceOps(t, tr, tenants)
	engCfg := engine.Config{Algorithm: "pd", Shards: 2, Seed: 3}
	want := stdinSnapshots(t, engCfg, ops)

	for _, window := range []int{0, 1, 7, 4096} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", Engine: engCfg})
			streamOps(t, s.TCPAddr(), ops[:tenants], true) // creates, awaited

			c := dialBin(t, s.TCPAddr())
			if window > 0 {
				c.window(window, window == 7) // exercise the latency flag on one size
			}
			// Mix singleton ARRIVEs with BATCH frames of varying size.
			arrivals := 0
			var pending []WireItem
			cur := ""
			flush := func() {
				switch {
				case len(pending) == 1:
					c.arrive(cur, pending[0].Point, pending[0].Demands)
				case len(pending) > 1:
					c.batch(cur, pending)
				}
				pending = pending[:0]
			}
			for _, op := range ops[tenants:] {
				if op.Tenant != cur || len(pending) >= 5 {
					flush()
					cur = op.Tenant
				}
				pending = append(pending, WireItem{Point: op.Point, Demands: op.Demands})
				arrivals++
			}
			flush()
			res, acks := c.finish()
			if !res.OK || res.Arrivals != arrivals {
				t.Fatalf("result %+v, want ok with %d arrivals", res, arrivals)
			}
			acked := 0
			for _, a := range acks {
				for _, code := range a.Codes {
					if code != 0 {
						t.Fatalf("ack carried failure code %d", code)
					}
				}
				if window == 7 && len(a.ServeNs) != len(a.Codes) {
					t.Fatalf("latencies requested but ack has %d ns for %d codes", len(a.ServeNs), len(a.Codes))
				}
				acked += len(a.Codes)
			}
			if window > 0 && acked != arrivals {
				t.Fatalf("acked %d of %d arrivals", acked, arrivals)
			}
			if window == 0 && acked != 0 {
				t.Fatalf("unwindowed stream got %d acks", acked)
			}

			got := httpJSON(t, "GET", "http://"+s.HTTPAddr()+"/v1/snapshots", nil, http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Error("binary-wire snapshots differ from the stdin op-stream path")
			}
		})
	}
}

// TestMixedWireStream interleaves JSON create frames mid-stream with binary
// arrivals on one windowed connection (negotiation is per frame, not per
// stream) while a second connection creates and drives other tenants on the
// same listener.
func TestMixedWireStream(t *testing.T) {
	tr := testTrace(61, 70, 5, 10)
	const tenants = 4
	ops := traceOps(t, tr, tenants)
	engCfg := engine.Config{Algorithm: "pd", Shards: 2, Seed: 7}
	want := stdinSnapshots(t, engCfg, ops)

	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", Engine: engCfg})

	// Tenant parity splits the work: even tenants ride the mixed stream,
	// each created by a JSON frame right before its first binary arrival;
	// odd tenants ride a second stream of creates followed by arrivals.
	even := func(op engine.Op) bool { return int(op.Tenant[len(op.Tenant)-1]-'0')%2 == 0 }
	creates := map[string]engine.Op{}
	var mixed, other []engine.Op
	for _, op := range ops[:tenants] {
		creates[op.Tenant] = op
		if !even(op) {
			other = append(other, op)
		}
	}
	for _, op := range ops[tenants:] {
		if even(op) {
			mixed = append(mixed, op)
		} else {
			other = append(other, op)
		}
	}

	c := dialBin(t, s.TCPAddr())
	c.window(16, false) // creates must not consume window slots
	created := map[string]bool{}
	for _, op := range mixed {
		if !created[op.Tenant] {
			created[op.Tenant] = true
			c.jsonOp(creates[op.Tenant])
		}
		c.arrive(op.Tenant, op.Point, op.Demands)
	}
	if len(created) != tenants/2 {
		t.Fatalf("mixed stream created %d tenants, want %d", len(created), tenants/2)
	}
	// The second stream runs start to finish while the mixed one is open.
	streamOps(t, s.TCPAddr(), other, true)
	res, acks := c.finish()
	if !res.OK || res.Arrivals != len(mixed) {
		t.Fatalf("mixed stream result %+v, want ok with %d arrivals", res, len(mixed))
	}
	acked := 0
	for _, a := range acks {
		acked += len(a.Codes)
	}
	if acked != len(mixed) {
		t.Fatalf("mixed stream acked %d of %d arrivals", acked, len(mixed))
	}

	got := httpJSON(t, "GET", "http://"+s.HTTPAddr()+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("mixed-wire snapshots differ from the stdin op-stream path")
	}
}

// TestBinaryMalformedFrames sends malformed frames — bad binary frames and
// a JSON arrive, which TCP no longer accepts — to a live server and checks
// each produces a clean failure result carrying the matching sentinel text
// (never a hang or a bare connection reset), serves nothing the row did not
// send before its bad frame, and leaves the listener serving the next
// stream.
func TestBinaryMalformedFrames(t *testing.T) {
	s := startServer(t, Config{TCPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 1}})
	streamOps(t, s.TCPAddr(), []engine.Op{{
		Op: "create", Tenant: "t0", Universe: 2,
		Distances: [][]float64{{0, 1}, {1, 0}}, CostBySize: []float64{0, 1, 1.5},
	}}, true)

	truncated := AppendWireArrive(nil, 0, 1, []int{0, 1})
	oversized := wireHead(nil, WireWindow)
	oversized = binary.AppendUvarint(oversized, uint64(MaxAckWindow+1))
	oversized = binary.AppendUvarint(oversized, 0)

	cases := []struct {
		name   string
		send   func(c *binStream)
		want   string
		served int // arrivals legitimately sent before the bad frame
	}{
		{"bad version", func(c *binStream) {
			c.frame([]byte{WireMagic, 0x7E, WireArrive, 0})
		}, ErrWireVersion.Error(), 0},
		{"unknown op", func(c *binStream) {
			c.frame([]byte{WireMagic, WireVersion, 0x6F})
		}, ErrWireOp.Error(), 0},
		{"client sends ack", func(c *binStream) {
			c.frame(AppendWireAck(nil, 0, []byte{0}, nil))
		}, ErrWireOp.Error(), 0},
		{"truncated varint", func(c *binStream) {
			c.ref("t0")
			c.frame(truncated[:len(truncated)-1])
		}, ErrWireTruncated.Error(), 0},
		{"unbound ref", func(c *binStream) {
			c.frame(AppendWireArrive(nil, 42, 0, []int{0}))
		}, ErrWireRef.Error(), 0},
		{"oversized window", func(c *binStream) {
			c.frame(oversized)
		}, ErrWireWindow.Error(), 0},
		{"window after arrival", func(c *binStream) {
			c.arrive("t0", 0, []int{0})
			c.window(8, false)
		}, ErrWireWindow.Error(), 1},
		{"duplicate window", func(c *binStream) {
			c.window(8, false)
			c.window(8, false)
		}, ErrWireWindow.Error(), 0},
		{"json arrive", func(c *binStream) {
			c.jsonOp(engine.Op{Op: "arrive", Tenant: "t0", Point: 0, Demands: []int{0}})
		}, ErrWireOp.Error(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := int(s.Engine().Metrics().Served)
			c := dialBin(t, s.TCPAddr())
			tc.send(c)
			res, _ := c.finish()
			if res.OK || res.Arrivals != tc.served || !strings.Contains(res.Error, tc.want) {
				t.Errorf("result %+v, want failure containing %q after %d arrivals", res, tc.want, tc.served)
			}

			// The listener still serves the next stream, and the engine
			// ends up serving exactly that stream's arrival plus the row's
			// legitimate prefix.
			c = dialBin(t, s.TCPAddr())
			c.arrive("t0", 0, []int{0, 1})
			if res, _ := c.finish(); !res.OK || res.Arrivals != 1 {
				t.Fatalf("post-failure stream result %+v, want ok/1", res)
			}
			awaitServed(t, s, before+tc.served+1)
			if got := int(s.Engine().Metrics().Served); got != before+tc.served+1 {
				t.Errorf("served %d arrivals, want %d", got-before, tc.served+1)
			}
		})
	}
}
