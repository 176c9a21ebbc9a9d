package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/server"
)

// openChunk is how many consecutive open-loop arrivals on a connection go
// to one tenant before the schedule moves to the next, so the arrivals due
// at one wake usually coalesce into a single BATCH frame.
const openChunk = 16

// connPlan is one client connection's share of a workload: its tenants
// (wire ref = position in tenants), the closed-loop frames rendered up front
// and the open-loop arrivals in due order.
type connPlan struct {
	tenants []int

	closedBlob   []byte      // length-prefixed BATCH frames, back to back
	closedFrames []blobFrame // frame boundaries in closedBlob
	closedSent   int

	open []openItem
}

type blobFrame struct {
	end      int // offset just past the frame in closedBlob
	arrivals int
}

type openItem struct {
	ref uint32
	r   req
}

// plan is a whole workload's generated input: per-tenant streams (closed
// prefix, then open-loop suffix) and each connection's share.
type plan struct {
	names   []string
	streams [][]req
	creates [][]byte
	conns   []*connPlan
}

// buildPlan generates a workload's inputs for seed. Tenants are dealt to
// conc connections round-robin. The closed-loop phase sends each tenant's
// first sp.closed arrivals as BATCH frames cycling over the connection's
// tenants; the open-loop phase sends rate·seconds arrivals, dealt in
// openChunk runs over the connection's tenants. Everything — including how
// many open arrivals each tenant gets — follows from (seed, seconds) alone.
func buildPlan(sp spec, seed int64, seconds, conc int) (*plan, error) {
	p := &plan{names: make([]string, sp.tenants), streams: make([][]req, sp.tenants)}
	for t := range p.names {
		p.names[t] = tenantName(t)
	}
	var err error
	if p.creates, err = createFrames(seed, p.names); err != nil {
		return nil, err
	}
	if conc > sp.tenants {
		conc = sp.tenants
	}
	p.conns = make([]*connPlan, conc)
	for c := range p.conns {
		p.conns[c] = &connPlan{}
	}
	for t := 0; t < sp.tenants; t++ {
		cp := p.conns[t%conc]
		cp.tenants = append(cp.tenants, t)
	}

	// Open-loop schedule: which tenant each connection's j-th arrival
	// addresses, and so how long each tenant's stream must be.
	total := int(sp.openRate * float64(seconds))
	openN := make([]int, sp.tenants)
	type slot struct{ ref, k int }
	slots := make([][]slot, conc)
	for c, cp := range p.conns {
		n := total / conc
		if c < total%conc {
			n++
		}
		slots[c] = make([]slot, n)
		for j := range slots[c] {
			ref := (j / openChunk) % len(cp.tenants)
			t := cp.tenants[ref]
			slots[c][j] = slot{ref: ref, k: openN[t]}
			openN[t]++
		}
	}
	for t := range p.streams {
		p.streams[t] = genStream(seed, t, sp.closed+openN[t])
	}
	for c, cp := range p.conns {
		cp.open = make([]openItem, len(slots[c]))
		for j, s := range slots[c] {
			cp.open[j] = openItem{ref: uint32(s.ref), r: p.streams[cp.tenants[s.ref]][sp.closed+s.k]}
		}
		if err := cp.renderClosed(p.streams, sp.closed); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// renderClosed renders the closed-loop frames: round r carries arrivals
// [r·batchSize, (r+1)·batchSize) of every tenant on the connection in turn.
func (cp *connPlan) renderClosed(streams [][]req, closed int) error {
	var buf bytes.Buffer
	var payload []byte
	items := make([]server.WireItem, 0, batchSize)
	for lo := 0; lo < closed; lo += batchSize {
		hi := min(lo+batchSize, closed)
		for ref, t := range cp.tenants {
			items = items[:0]
			for _, r := range streams[t][lo:hi] {
				items = append(items, r.wireItem())
			}
			payload = server.AppendWireBatch(payload[:0], uint64(ref), items)
			if err := server.WriteFrame(&buf, payload); err != nil {
				return err
			}
			cp.closedFrames = append(cp.closedFrames, blobFrame{end: buf.Len(), arrivals: hi - lo})
			cp.closedSent += hi - lo
		}
	}
	cp.closedBlob = buf.Bytes()
	return nil
}

// dial opens a connection for cp and binds every tenant on it.
func (cp *connPlan) dial(addr string, names []string, window int, base time.Time, ackAt []int64) (*wireConn, error) {
	c, err := dialWire(addr, window, base, ackAt)
	if err != nil {
		return nil, err
	}
	for ref, t := range cp.tenants {
		if err := c.bind(uint64(ref), names[t]); err != nil {
			c.conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// driveClosed streams the pre-rendered closed-loop frames, keeping at most
// window arrivals unacked, then ends the stream. With spans set, each frame
// write and each wait for acks is recorded as a span under parent.
func driveClosed(c *wireConn, cp *connPlan, window int, spans *spanLog, parent int) error {
	sent, off := 0, 0
	for _, f := range cp.closedFrames {
		if need := sent + f.arrivals - window; need > c.ackedCount() {
			t0 := spans.now()
			if err := c.waitAcked(need); err != nil {
				return err
			}
			spans.add("client.wait_ack", parent, t0, spans.now(), 0)
		}
		t0 := spans.now()
		if _, err := c.bw.Write(cp.closedBlob[off:f.end]); err != nil {
			return err
		}
		spans.add("client.write", parent, t0, spans.now(), f.arrivals)
		off = f.end
		sent += f.arrivals
	}
	refused, err := c.finish(sent)
	if err == nil && refused > 0 {
		err = fmt.Errorf("%d arrivals refused", refused)
	}
	return err
}

func (c *wireConn) ackedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// driveOpen sends cp's open-loop arrivals on a fixed schedule of rate
// arrivals/s starting at c.base: arrival j is due j/rate seconds in. On
// each wake it sends exactly the arrivals already due, one BATCH frame per
// same-tenant run, and records how late the wake was against the earliest
// of them. It never waits for acks.
func driveOpen(c *wireConn, cp *connPlan, rate float64) (lateNs []float64, err error) {
	interval := 1e9 / rate
	items := make([]server.WireItem, 0, batchSize)
	n := len(cp.open)
	for next := 0; next < n; {
		now := float64(time.Since(c.base))
		due := n
		if now < float64(n-1)*interval {
			due = int(math.Floor(now/interval)) + 1
		}
		if now < 0 || due <= next {
			time.Sleep(time.Duration(float64(next)*interval - now))
			continue
		}
		lateNs = append(lateNs, now-float64(next)*interval)
		for i := next; i < due; {
			ref := cp.open[i].ref
			items = items[:0]
			for ; i < due && cp.open[i].ref == ref && len(items) < batchSize; i++ {
				items = append(items, cp.open[i].r.wireItem())
			}
			if err := c.batch(uint64(ref), items); err != nil {
				return lateNs, err
			}
		}
		if err := c.bw.Flush(); err != nil {
			return lateNs, err
		}
		next = due
	}
	return lateNs, nil
}

// runConns runs fn once per connection index concurrently and returns the
// first error.
func runConns(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
