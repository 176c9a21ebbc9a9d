package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/server"
)

// The ladder serves one seeded stream through each rung, bottom up. Every
// rung above core includes the ones below it, so a rung's delta_ns to the
// rung below is that layer's self time per arrival.
var rungs = []string{"core", "engine", "wire", "tcp", "router", "replicate", "checkpoint"}

// History windows: the first freshN arrivals on each of freshTenants new
// states, and longN arrivals on one state pre-built to longBuild arrivals.
// Streams are generated, and each rung's inputs prepared, before its timed
// region starts.
const (
	freshTenants = 16
	freshN       = 1000
	longBuild    = 100000
	longN        = 10000
	// ladderWindow is the batches a rung keeps in flight above core.
	ladderWindow = 4
)

// layer serves arrivals through one rung. prepare converts a stream
// into the rung's input form outside the timed region; serve then serves
// it for tenant, writing each arrival's latency (ns from its submission to
// its completion signal at this rung) into lat when lat is non-nil, and
// returns the wall time and heap allocations of its timed region.
type layer interface {
	create(frames [][]byte) error
	prepare(rs []req)
	serve(tenant string, lat []float64, spans *spanLog, parent int) (ns int64, mallocs uint64, err error)
	snapshots() ([]byte, error)
	close() error
}

// meter brackets a timed region: wall time and heap allocations.
type meter struct {
	t0 time.Time
	m0 uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), m0: ms.Mallocs}
}

func (m meter) stop() (int64, uint64) {
	ns := int64(time.Since(m.t0))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ns, ms.Mallocs - m.m0
}

// rungWindow accumulates one rung's measurements at one history.
type rungWindow struct {
	ns       int64
	mallocs  uint64
	arrivals int
	lat      []float64
}

// runTraced is the traced run: the workload's closed loop untraced and
// traced (for trace.overhead_frac), then the layer ladder. Spans go to
// spanPath when the run ends.
func runTraced(sp spec, seed int64, dir, spanPath string, cnt *counts) (*report, error) {
	rep := newReport()
	spans := newSpanLog()
	if err := traceOverhead(sp, seed, dir, rep, spans, cnt); err != nil {
		return nil, err
	}
	if err := runLadder(seed, dir, rep, spans, cnt); err != nil {
		return nil, err
	}
	if err := spans.write(spanPath); err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s", len(spans.spans), spanPath)
	return rep, nil
}

// traceOverhead drives the workload's closed loop on fresh systems,
// untraced and traced in the order ABBAAB, checks each run's
// final state against the oracle, and reports 1 − traced/untraced median
// throughput.
func traceOverhead(sp spec, seed int64, dir string, rep *report, spans *spanLog, cnt *counts) error {
	p, err := buildPlan(sp, seed, 0, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	for t := range p.streams {
		p.streams[t] = p.streams[t][:sp.closed]
	}
	oracle, err := oracleSnapshots(seed, p.names, p.streams)
	if err != nil {
		return err
	}
	var untraced, traced []float64
	for i, withSpans := range []bool{false, true, true, false, false, true} {
		var log *spanLog
		if withSpans {
			log = spans
		}
		res, err := checkedClosedLoop(sp, seed, filepath.Join(dir, fmt.Sprintf("overhead%d", i)), p, oracle, log, cnt)
		if err != nil {
			return err
		}
		if withSpans {
			traced = append(traced, res.throughput)
		} else {
			untraced = append(untraced, res.throughput)
		}
	}
	u, t := median(untraced), median(traced)
	rep.set("trace.overhead_frac", "fraction", 1-t/u)
	rep.note("trace overhead: %s closed loop %.0f arrivals/s untraced, %.0f traced", sp.name, u, t)
	return nil
}

// runLadder walks the rungs bottom up and reports each rung's metrics at
// both histories, the deltas between adjacent rungs and every layer's
// extra metrics. Every rung's final snapshots must equal the engine rung's.
func runLadder(seed int64, dir string, rep *report, spans *spanLog, cnt *counts) error {
	names := make([]string, freshTenants+1)
	streams := make([][]req, freshTenants+1)
	for t := 0; t < freshTenants; t++ {
		names[t] = tenantName(t)
		streams[t] = genStream(seed, t, freshN)
	}
	long := freshTenants
	names[long] = tenantName(long)
	streams[long] = genStream(seed, long, longBuild+longN)
	frames, err := createFrames(seed, names)
	if err != nil {
		return err
	}

	var coreSnaps, reference []byte // reference: the engine rung's snapshots
	prev := map[string]float64{}
	for _, rung := range rungs {
		d, err := newLayer(rung, seed, filepath.Join(dir, "ladder-"+rung))
		if err != nil {
			return err
		}
		root := spans.add("rung."+rung, 0, spans.now(), 0, 0)
		err = func() error {
			if err := d.create(frames); err != nil {
				return err
			}
			var fresh rungWindow
			for t := 0; t < freshTenants; t++ {
				if err := measure(d, rung+".fresh", names[t], streams[t], &fresh, spans, root, cnt); err != nil {
					return err
				}
			}
			d.prepare(streams[long][:longBuild])
			cnt.attempted += longBuild
			if _, _, err := d.serve(names[long], nil, nil, 0); err != nil {
				cnt.failed += longBuild
				return err
			}
			var lw rungWindow
			if err := measure(d, rung+".long", names[long], streams[long][longBuild:], &lw, spans, root, cnt); err != nil {
				return err
			}
			for _, w := range []struct {
				hist string
				rw   *rungWindow
			}{{"fresh", &fresh}, {"long", &lw}} {
				key := rung + "." + w.hist + "."
				nsPer := float64(w.rw.ns) / float64(w.rw.arrivals)
				rep.set(key+"ns_per_arrival", "ns", nsPer)
				rep.set(key+"allocs_per_arrival", "count", float64(w.rw.mallocs)/float64(w.rw.arrivals))
				if err := rep.latencies(key, w.rw.lat); err != nil {
					return err
				}
				if below, ok := prev[w.hist]; ok {
					rep.set(key+"delta_ns", "ns", nsPer-below)
				}
				prev[w.hist] = nsPer
			}
			if rung == "engine" {
				// ServeBatch call → onDone, per arrival, pooled over both windows.
				if err := batchP999(rep, append(fresh.lat, lw.lat...)); err != nil {
					return err
				}
			}
			if x, ok := d.(interface{ extras(*report) error }); ok {
				if err := x.extras(rep); err != nil {
					return err
				}
			}
			got, err := d.snapshots()
			if err != nil {
				return err
			}
			switch rung {
			case "core":
				coreSnaps = got // checked once the engine rung's exist
			case "engine":
				reference = got
				_, err = checkSnapshots("ladder core", coreSnaps, reference)
			default:
				_, err = checkSnapshots("ladder "+rung, got, reference)
			}
			return err
		}()
		spans.end(root)
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("ladder rung %s: %v", rung, err)
		}
	}
	return nil
}

// measure serves one window of a rung and folds it into w.
func measure(d layer, what, tenant string, rs []req, w *rungWindow, spans *spanLog, parent int, cnt *counts) error {
	d.prepare(rs)
	lat := make([]float64, len(rs))
	cnt.attempted += int64(len(rs))
	id := spans.add(what, parent, spans.now(), 0, len(rs))
	ns, mallocs, err := d.serve(tenant, lat, spans, id)
	spans.end(id)
	if err != nil {
		cnt.failed += int64(len(rs))
		return err
	}
	w.ns += ns
	w.mallocs += mallocs
	w.arrivals += len(rs)
	w.lat = append(w.lat, lat...)
	return nil
}

func batchP999(rep *report, lat []float64) error {
	v, err := latencyPercentiles(lat)
	if err != nil {
		return fmt.Errorf("engine.batch_p999_us: %v", err)
	}
	rep.set("engine.batch_p999_us", "us", v[2]/1e3)
	rep.note("engine.batch_p999_us = %.3f us over n=%d samples", v[2]/1e3, len(lat))
	return nil
}

func newLayer(rung string, seed int64, dir string) (layer, error) {
	switch rung {
	case "core":
		return &coreRung{seed: seed, algs: map[string]*core.PDOMFLP{}, points: map[string][]int{}}, nil
	case "engine", "wire":
		return &engineRung{eng: engine.New(engine.Config{Shards: 1, Seed: seed}), wire: rung == "wire"}, nil
	}
	sys, err := startLadderSystem(rung, seed, dir)
	if err != nil {
		return nil, err
	}
	return &netRung{rung: rung, sys: sys, seed: seed, dir: dir}, nil
}

// coreRung serves arrivals by calling PDOMFLP.Serve directly.
type coreRung struct {
	seed   int64
	space  metric.Space
	costs  cost.Model
	algs   map[string]*core.PDOMFLP
	reqs   []instance.Request
	names  []string
	points map[string][]int // every served arrival's point, per tenant
}

func (d *coreRung) create(frames [][]byte) error {
	op := createOp(d.seed, "")
	table, err := cost.NewTable(op.CostBySize)
	if err != nil {
		return err
	}
	d.space, d.costs = metric.NewMatrix(op.Distances), table
	for t := range frames {
		name := tenantName(t)
		d.algs[name] = core.NewPDOMFLP(d.space, d.costs, core.Options{})
		d.names = append(d.names, name)
	}
	return nil
}

func (d *coreRung) prepare(rs []req) {
	d.reqs = d.reqs[:0]
	for _, r := range rs {
		d.reqs = append(d.reqs, r.request())
	}
}

func (d *coreRung) serve(tenant string, lat []float64, spans *spanLog, parent int) (int64, uint64, error) {
	pd := d.algs[tenant]
	m := startMeter()
	for i, r := range d.reqs {
		t0 := time.Now()
		pd.Serve(r)
		if lat != nil {
			lat[i] = float64(time.Since(t0))
		}
	}
	ns, mallocs := m.stop()
	spans.add("core.serve", parent, spans.now()-ns, spans.now(), len(d.reqs))
	for _, r := range d.reqs {
		d.points[tenant] = append(d.points[tenant], r.Point)
	}
	return ns, mallocs, nil
}

// extras reports the long-history state's serialization cost and size.
func (d *coreRung) extras(rep *report) error {
	pd := d.algs[d.names[len(d.names)-1]]
	t0 := time.Now()
	state, err := pd.MarshalState()
	if err != nil {
		return err
	}
	rep.set("core.marshal_ms", "ms", ms(time.Since(t0)))
	rep.set("core.state_bytes", "bytes", float64(len(state)))
	rep.set("core.facilities", "count", float64(len(pd.Solution().Facilities)))
	return nil
}

// snapshots renders the core states as the engine renders compact
// snapshots, with the cost accounting summed in the engine's order.
func (d *coreRung) snapshots() ([]byte, error) {
	var snaps []*engine.TenantSnapshot
	for _, name := range d.names {
		pd := d.algs[name]
		sol := pd.Solution()
		s := &engine.TenantSnapshot{
			Tenant:     name,
			Algorithm:  pd.Name(),
			Served:     len(sol.Assign),
			Facilities: make([]engine.SnapshotFacility, len(sol.Facilities)),
			DualTotal:  pd.DualTotal(),
		}
		for i, f := range sol.Facilities {
			s.ConstructionCost += d.costs.Cost(f.Point, f.Config)
			s.Facilities[i] = engine.SnapshotFacility{Point: f.Point, Commodities: f.Config.IDs()}
		}
		for i, p := range d.points[name] {
			for _, fi := range sol.Assign[i] {
				s.AssignmentCost += d.space.Distance(p, sol.Facilities[fi].Point)
			}
		}
		s.Cost = s.ConstructionCost + s.AssignmentCost
		snaps = append(snaps, s)
	}
	return encodeSnapshots(snaps)
}

func (d *coreRung) close() error { return nil }

// engineRung serves through engine.ServeBatch, keeping ladderWindow
// batches in flight. With wire set it is the server-wire rung: each batch
// is encoded as a BATCH payload and decoded back, as the TCP reader does,
// before ServeBatch.
type engineRung struct {
	eng   *engine.Engine
	wire  bool
	units [][]server.WireItem
	reqs  [][]engine.BatchItem

	encodeNs, decodeNs, wireBytes, wireArrivals int64
}

func (d *engineRung) create(frames [][]byte) error {
	for _, f := range frames {
		var op engine.Op
		if err := json.Unmarshal(f, &op); err != nil {
			return err
		}
		if err := d.eng.Apply(op); err != nil {
			return err
		}
	}
	return nil
}

func (d *engineRung) prepare(rs []req) {
	d.units, d.reqs = d.units[:0], d.reqs[:0]
	for lo := 0; lo < len(rs); lo += batchSize {
		hi := min(lo+batchSize, len(rs))
		wi := make([]server.WireItem, hi-lo)
		bi := make([]engine.BatchItem, hi-lo)
		for i, r := range rs[lo:hi] {
			wi[i] = r.wireItem()
			bi[i].Req = r.request()
		}
		d.units = append(d.units, wi)
		d.reqs = append(d.reqs, bi)
	}
}

func (d *engineRung) serve(tenant string, lat []float64, spans *spanLog, parent int) (int64, uint64, error) {
	sem := make(chan struct{}, ladderWindow)
	var wg sync.WaitGroup
	submit := make([]int64, len(d.reqs))
	done := make([]int64, len(d.reqs))
	var payload []byte
	var scratch []int
	var firstErr error
	m := startMeter()
	base, spanOff := time.Now(), spans.now()
	since := func() int64 { return int64(time.Since(base)) }
	for u := range d.reqs {
		sem <- struct{}{}
		submit[u] = since()
		items := d.reqs[u]
		if d.wire {
			payload = server.AppendWireBatch(payload[:0], 0, d.units[u])
			t1 := since()
			var err error
			items, scratch, err = decodeBatch(payload, scratch)
			t2 := since()
			if err != nil {
				firstErr = err
				break
			}
			if lat != nil { // measured windows only, not the untimed pre-build
				d.encodeNs += t1 - submit[u]
				d.decodeNs += t2 - t1
				d.wireBytes += int64(len(payload) + 4) // plus the frame's length prefix
				d.wireArrivals += int64(len(items))
			}
			spans.add("wire.encode", parent, spanOff+submit[u], spanOff+t1, len(items))
			spans.add("wire.decode", parent, spanOff+t1, spanOff+t2, len(items))
		}
		wg.Add(1)
		if _, err := d.eng.ServeBatch(tenant, items, false, func(int, []int64) {
			done[u] = since()
			<-sem
			wg.Done()
		}); err != nil {
			wg.Done()
			firstErr = err
			break
		}
	}
	wg.Wait()
	ns, mallocs := m.stop()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	for i := range lat {
		u := i / batchSize
		lat[i] = float64(done[u] - submit[u])
	}
	for u, items := range d.reqs {
		spans.add("engine.batch", parent, spanOff+submit[u], spanOff+done[u], len(items))
	}
	return ns, mallocs, nil
}

// decodeBatch decodes a BATCH payload into engine batch items, as the TCP
// reader does for each frame.
func decodeBatch(payload []byte, scratch []int) ([]engine.BatchItem, []int, error) {
	_, body, err := server.WireFrameKind(payload)
	if err != nil {
		return nil, scratch, err
	}
	_, count, rest, err := server.DecodeWireBatchHeader(body)
	if err != nil {
		return nil, scratch, err
	}
	items := make([]engine.BatchItem, count)
	for i := range items {
		var point int
		var demands []int
		point, demands, rest, err = server.DecodeWireBatchItem(rest, scratch[:0])
		if err != nil {
			return nil, scratch, err
		}
		scratch = demands[:0]
		items[i].Req = instance.Request{Point: point, Demands: commodity.New(demands...)}
	}
	return items, scratch, nil
}

func (d *engineRung) extras(rep *report) error {
	if !d.wire {
		return nil
	}
	n := float64(d.wireArrivals)
	rep.set("wire.encode_ns", "ns", float64(d.encodeNs)/n)
	rep.set("wire.decode_ns", "ns", float64(d.decodeNs)/n)
	rep.set("wire.bytes_per_arrival", "bytes", float64(d.wireBytes)/n)
	return nil
}

func (d *engineRung) snapshots() ([]byte, error) {
	d.eng.Drain()
	snaps, err := d.eng.SnapshotAllCompact()
	if err != nil {
		return nil, err
	}
	return encodeSnapshots(snaps)
}

func (d *engineRung) close() error {
	d.eng.Close()
	return nil
}

// startLadderSystem starts the topology of a network rung: one server
// (tcp), a router over one worker (router), a replicating router over two
// workers (replicate), and the same with checkpointing workers
// (checkpoint). Every engine has one shard, as on the in-process rungs.
func startLadderSystem(rung string, seed int64, dir string) (*system, error) {
	workers := map[string]int{"tcp": 1, "router": 1, "replicate": 2, "checkpoint": 2}[rung]
	sys := &system{}
	for i := 0; i < workers; i++ {
		cfg := server.Config{
			HTTPAddr: "127.0.0.1:0",
			TCPAddr:  "127.0.0.1:0",
			Engine:   engine.Config{Shards: 1, Seed: seed},
		}
		if rung == "checkpoint" {
			cfg.CheckpointDir = filepath.Join(dir, fmt.Sprintf("w%d", i))
			cfg.CheckpointEvery = time.Hour
		}
		srv, err := server.New(cfg)
		if err == nil {
			err = srv.Start()
		}
		if err != nil {
			sys.shutdown()
			return nil, err
		}
		sys.servers = append(sys.servers, srv)
	}
	if rung == "tcp" {
		sys.tcp, sys.http = sys.servers[0].TCPAddr(), sys.servers[0].HTTPAddr()
		return sys, nil
	}
	var nodes []string
	for _, srv := range sys.servers {
		nodes = append(nodes, srv.HTTPAddr())
	}
	r, err := cluster.New(cluster.Config{
		HTTPAddr:  "127.0.0.1:0",
		TCPAddr:   "127.0.0.1:0",
		Nodes:     nodes,
		Replicate: workers > 1,
	})
	if err == nil {
		err = r.Start()
	}
	if err != nil {
		sys.shutdown()
		return nil, err
	}
	sys.router = r
	sys.tcp, sys.http = r.TCPAddr(), r.HTTPAddr()
	return sys, nil
}

// netRung serves over the binary wire into a running topology, one
// stream per window, keeping ladderWindow BATCH frames in flight.
type netRung struct {
	rung   string
	sys    *system
	seed   int64
	dir    string
	frames [][]byte
	n      int // arrivals in frames

	createMs          []float64
	acked, ackFrames  int
	sentThroughRouter int64
}

func (d *netRung) create(frames [][]byte) error {
	if d.sys.router == nil {
		return createTenants(d.sys.tcp, frames)
	}
	// Through a router, creates go one HTTP request each so their
	// latency (router.create_ms) is measured one by one.
	for t, f := range frames {
		t0 := time.Now()
		resp, err := http.Post("http://"+d.sys.http+"/v1/tenants/"+tenantName(t), "application/json", bytes.NewReader(f))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create %s: %s", tenantName(t), resp.Status)
		}
		d.createMs = append(d.createMs, ms(time.Since(t0)))
	}
	return nil
}

func (d *netRung) prepare(rs []req) {
	d.frames, d.n = d.frames[:0], len(rs)
	items := make([]server.WireItem, 0, batchSize)
	for lo := 0; lo < len(rs); lo += batchSize {
		items = items[:0]
		for _, r := range rs[lo:min(lo+batchSize, len(rs))] {
			items = append(items, r.wireItem())
		}
		d.frames = append(d.frames, server.AppendWireBatch(nil, 0, items))
	}
}

func (d *netRung) serve(tenant string, lat []float64, spans *spanLog, parent int) (int64, uint64, error) {
	n := d.n
	base := time.Now()
	ackAt := make([]int64, n)
	c, err := dialWire(d.sys.tcp, ladderWindow*batchSize, base, ackAt)
	if err != nil {
		return 0, 0, err
	}
	if err := c.bind(0, tenant); err != nil {
		c.conn.Close()
		return 0, 0, err
	}
	if err := c.bw.Flush(); err != nil {
		c.conn.Close()
		return 0, 0, err
	}
	sentAt := make([]int64, len(d.frames))
	m := startMeter()
	sent := 0
	for u, f := range d.frames {
		count := min(batchSize, n-u*batchSize)
		if need := sent + count - ladderWindow*batchSize; need > 0 {
			if err := c.waitAcked(need); err != nil {
				c.conn.Close()
				return 0, 0, err
			}
		}
		sentAt[u] = int64(time.Since(base))
		if err := server.WriteFrame(c.bw, f); err != nil {
			c.conn.Close()
			return 0, 0, err
		}
		if err := c.bw.Flush(); err != nil {
			c.conn.Close()
			return 0, 0, err
		}
		sent += count
	}
	refused, err := c.finish(sent)
	ns, mallocs := m.stop()
	if err == nil && refused > 0 {
		err = fmt.Errorf("%d arrivals refused", refused)
	}
	if err != nil {
		return 0, 0, err
	}
	d.acked += c.acked
	d.ackFrames += c.ackFrames
	d.sentThroughRouter += int64(sent)
	if lat != nil {
		for i := range lat {
			lat[i] = float64(ackAt[i] - sentAt[i/batchSize])
		}
	}
	off := spans.now() - int64(time.Since(base))
	for u := range d.frames {
		end := ackAt[min((u+1)*batchSize, n)-1]
		spans.add(d.rung+".batch", parent, off+sentAt[u], off+end, min(batchSize, n-u*batchSize))
	}
	return ns, mallocs, nil
}

func (d *netRung) extras(rep *report) error {
	switch d.rung {
	case "tcp":
		rep.set("tcp.arrivals_per_ack", "count", float64(d.acked)/float64(d.ackFrames))
	case "router":
		rep.set("router.create_ms", "ms", median(d.createMs))
		rep.set("router.retries", "count", float64(d.sys.router.Metrics().Retries))
	case "replicate":
		var served int64
		for _, srv := range d.sys.servers {
			srv.Engine().Drain()
			served += srv.Engine().ServedTotal()
		}
		rep.set("replicate.write_amp", "ratio", float64(served)/float64(d.sentThroughRouter))
	case "checkpoint":
		return d.checkpointExtras(rep)
	}
	return nil
}

// checkpointExtras times a checkpoint capture, its file write and a
// restore from it on the first worker, which holds the long-history
// tenant, and the worker's HTTP checkpoint and compact snapshot calls.
func (d *netRung) checkpointExtras(rep *report) error {
	w := d.sys.servers[0]
	t0 := time.Now()
	ck, err := w.Engine().Checkpoint()
	if err != nil {
		return err
	}
	rep.set("engine.checkpoint_ms", "ms", ms(time.Since(t0)))
	n, err := ck.WriteFile(filepath.Join(d.dir, "capture", server.CheckpointFile))
	if err != nil {
		return err
	}
	rep.set("engine.checkpoint_bytes", "bytes", float64(n))
	eng := engine.New(engine.Config{Shards: 1, Seed: d.seed, RecordArrivals: true})
	t0 = time.Now()
	stats, err := eng.Restore(ck)
	eng.Drain()
	rep.set("engine.restore_ms", "ms", ms(time.Since(t0)))
	if err != nil {
		eng.Close()
		return err
	}
	rep.set("engine.replayed", "count", float64(stats.Replayed))
	restored, err := eng.SnapshotAllCompact()
	eng.Close()
	if err != nil {
		return err
	}
	live, err := w.Engine().SnapshotAllCompact()
	if err != nil {
		return err
	}
	a, err := encodeSnapshots(restored)
	if err != nil {
		return err
	}
	b, err := encodeSnapshots(live)
	if err != nil {
		return err
	}
	if _, err := checkSnapshots("ladder checkpoint restore", a, b); err != nil {
		return err
	}

	var ckMs, snapMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := postEmpty(w.HTTPAddr() + "/v1/checkpoint"); err != nil {
			return err
		}
		ckMs = append(ckMs, ms(time.Since(t0)))
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := getBody(w.HTTPAddr() + "/v1/tenants/" + tenantName(freshTenants) + "/snapshot?compact=1"); err != nil {
			return err
		}
		snapMs = append(snapMs, ms(time.Since(t0)))
	}
	rep.set("http.checkpoint_ms", "ms", median(ckMs))
	rep.set("http.snapshot_ms", "ms", median(snapMs))
	return nil
}

func (d *netRung) snapshots() ([]byte, error) {
	return getBody(d.sys.http + "/v1/snapshots?compact=1")
}

func (d *netRung) close() error { return d.sys.shutdown() }
