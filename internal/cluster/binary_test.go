package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
)

// binClient is a minimal binary-wire client for router tests: one framed
// connection, lazily-bound tenant refs, and a drain that separates router
// acks from the final result frame.
type binClient struct {
	t    *testing.T
	conn *net.TCPConn
	bw   *bufio.Writer
	refs map[string]uint64
}

func dialBinary(t *testing.T, addr string) *binClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &binClient{t: t, conn: conn.(*net.TCPConn), bw: bufio.NewWriter(conn), refs: map[string]uint64{}}
	t.Cleanup(func() { conn.Close() })
	return c
}

func (c *binClient) frame(payload []byte) {
	c.t.Helper()
	if err := server.WriteFrame(c.bw, payload); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binClient) ref(tenant string) uint64 {
	r, ok := c.refs[tenant]
	if !ok {
		r = uint64(len(c.refs))
		c.refs[tenant] = r
		c.frame(server.AppendWireBind(nil, r, tenant))
	}
	return r
}

// arrive sends one ARRIVE frame, stamped with traceID when non-zero.
func (c *binClient) arrive(tenant string, a server.Arrival, traceID uint64) {
	c.t.Helper()
	ref := c.ref(tenant)
	if err := server.WriteFrameTrace(c.bw, server.AppendWireArrive(nil, ref, a.Point, a.Demands), traceID); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binClient) flush() {
	c.t.Helper()
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binClient) finish() (server.TCPResult, int) {
	c.t.Helper()
	c.flush()
	if err := c.conn.CloseWrite(); err != nil {
		c.t.Fatal(err)
	}
	br := bufio.NewReader(c.conn)
	acked := 0
	var buf []byte
	for {
		frame, err := server.ReadFrame(br, buf)
		if err != nil {
			c.t.Fatalf("reading result: %v", err)
		}
		if server.IsBinaryFrame(frame) {
			op, body, err := server.WireFrameKind(frame)
			if err != nil || op != server.WireAck {
				c.t.Fatalf("router sent op 0x%02x (err %v), want ack", op, err)
			}
			ack, err := server.DecodeWireAck(body)
			if err != nil {
				c.t.Fatal(err)
			}
			for _, code := range ack.Codes {
				if code != 0 {
					c.t.Fatalf("router ack carried failure code %d", code)
				}
			}
			acked += len(ack.Codes)
			buf = frame[:0]
			continue
		}
		var res server.TCPResult
		if err := json.Unmarshal(frame, &res); err != nil {
			c.t.Fatal(err)
		}
		return res, acked
	}
}

// TestRouterBinaryWireByteIdentity is the cluster half of the wire
// negotiation contract: a windowed binary client drives two tenants through
// the router — across a live migration of one of them — while a second,
// unwindowed connection drives the third with singleton ARRIVE frames, and
// the final cluster artifact is byte-identical to the single-node reference
// for the same workload.
func TestRouterBinaryWireByteIdentity(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 30
	want := referenceArtifact(t, 17, tenants, arrivals)

	w1 := startWorker(t, 17, "")
	w2 := startWorker(t, 17, "")
	r := startRouter(t, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}})
	base := "http://" + r.HTTPAddr()
	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}

	// The windowed client owns tenants 0 and 2; the second connection owns
	// tenant 1. Per-tenant arrival order is all that determinism requires,
	// so both sessions stay open side by side.
	other := dialBinary(t, r.TCPAddr())
	otherSent := 0
	sendOther := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%tenants == 1 {
				other.arrive(tenantName(1), testArrival(i), 0)
				otherSent++
			}
		}
		other.flush()
	}
	sendOther(0, cut)

	c := dialBinary(t, r.TCPAddr())
	c.frame(server.AppendWireWindow(nil, 8, false))
	binSent := 0
	// Prefix as singleton ARRIVE frames, in order.
	for i := 0; i < cut; i++ {
		if i%tenants == 1 {
			continue
		}
		a := testArrival(i)
		c.frame(server.AppendWireArrive(nil, c.ref(tenantName(i%tenants)), a.Point, a.Demands))
		binSent++
	}
	c.flush()

	// Migrate tenant-000 with the binary stream open: wait for its prefix to
	// reach the ledger, then move it to the node that doesn't own it. Suffix
	// frames for it must follow the route flip (and any in-flight ones the
	// migration buffer's binary re-decode path).
	const moved = "tenant-000"
	waitFor(t, "binary prefix to reach the ledger", func() bool {
		r.mu.RLock()
		defer r.mu.RUnlock()
		rt, ok := r.routes[moved]
		return ok && rt.count.Load() == cut/tenants
	})
	r.mu.RLock()
	owner := r.routes[moved].node
	r.mu.RUnlock()
	target := []string{w1.HTTPAddr(), w2.HTTPAddr()}[1-owner]
	if _, err := r.Migrate(moved, target); err != nil {
		t.Fatal(err)
	}

	// Suffix as per-tenant BATCH frames — cross-tenant reorder is legal.
	items := map[string][]server.WireItem{}
	for i := cut; i < arrivals; i++ {
		if i%tenants == 1 {
			continue
		}
		id := tenantName(i % tenants)
		a := testArrival(i)
		items[id] = append(items[id], server.WireItem{Point: a.Point, Demands: a.Demands})
		binSent++
	}
	for _, id := range []string{tenantName(0), tenantName(2)} {
		c.frame(server.AppendWireBatch(nil, c.ref(id), items[id]))
	}
	sendOther(cut, arrivals)
	res, acked := c.finish()
	if !res.OK || res.Arrivals != binSent {
		t.Fatalf("binary result %+v, want ok with %d arrivals", res, binSent)
	}
	if acked != binSent {
		t.Fatalf("router acked %d of %d binary-stream arrivals", acked, binSent)
	}
	if res, _ := other.finish(); !res.OK || res.Arrivals != otherSent || otherSent != arrivals/tenants {
		t.Fatalf("second stream result %+v after %d sent, want ok with %d arrivals", res, otherSent, arrivals/tenants)
	}

	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("binary-over-router snapshots differ from the single-node artifact")
	}
	if n := r.migrations.Load(); n != 1 {
		t.Errorf("migrations counter = %d, want 1", n)
	}
}

// TestRouterMalformedFrames is the router half of the malformed-frame
// contract: a bad binary frame, or a JSON arrive (TCP arrivals are
// binary-only), fails its stream with the matching sentinel in the result
// frame, forwards nothing to the workers, and leaves the listener serving
// the next stream.
func TestRouterMalformedFrames(t *testing.T) {
	w1 := startWorker(t, 23, "")
	r := startRouter(t, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w1.HTTPAddr()}})
	httpJSON(t, "POST", "http://"+r.HTTPAddr()+"/v1/tenants/a", testCreate, http.StatusCreated)

	truncated := server.AppendWireBatch(nil, 0, []server.WireItem{{Point: 1, Demands: []int{0, 1}}, {Point: 2, Demands: []int{2}}})
	truncated = truncated[:len(truncated)-1]
	jsonArrive, err := json.Marshal(engine.Op{Op: "arrive", Tenant: "a", Point: 0, Demands: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		send func(c *binClient)
		want error
	}{
		{"unbound ref", func(c *binClient) {
			c.frame(server.AppendWireArrive(nil, 42, 0, []int{0}))
		}, server.ErrWireRef},
		{"client sends ack", func(c *binClient) {
			c.frame(server.AppendWireAck(nil, 0, []byte{0}, nil))
		}, server.ErrWireOp},
		{"truncated batch", func(c *binClient) {
			c.ref("a")
			c.frame(truncated)
		}, server.ErrWireTruncated},
		{"json arrive", func(c *binClient) {
			c.frame(jsonArrive)
		}, server.ErrWireOp},
	}
	served := func() int64 { return w1.Engine().Metrics().Served }
	ledger := func() int64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.routes["a"].count.Load()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, beforeLedger := served(), ledger()
			c := dialBinary(t, r.TCPAddr())
			tc.send(c)
			res, _ := c.finish()
			if res.OK || res.Arrivals != 0 || !strings.Contains(res.Error, tc.want.Error()) {
				t.Errorf("result %+v, want failure containing %q with no arrivals", res, tc.want)
			}
			if got := ledger(); got != beforeLedger {
				t.Errorf("route ledger moved by %d on the bad stream, want 0", got-beforeLedger)
			}

			// The listener still routes the next stream, and the worker
			// ends up serving exactly that stream's arrival.
			c = dialBinary(t, r.TCPAddr())
			c.arrive("a", testArrival(0), 0)
			if res, _ := c.finish(); !res.OK || res.Arrivals != 1 {
				t.Fatalf("post-failure stream result %+v, want ok/1", res)
			}
			waitFor(t, "the follow-up arrival to be served", func() bool { return served() >= before+1 })
			if got := served(); got != before+1 {
				t.Errorf("worker served %d arrivals, want 1", got-before)
			}
		})
	}
}
