package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// cmdLoadgen drives an omflp serve daemon over HTTP or the framed TCP
// protocol (JSON creates, binary arrivals) with configurable concurrency
// and reports achieved arrivals/s plus latency percentiles. Without -addr
// it spawns an in-process server on loopback first — "omflp loadgen -mode
// tcp" benchmarks the whole network stack with one command. Workers
// partition tenants (tenant t drives on worker t mod conc), so per-tenant
// arrival order is exactly trace order: driving a server with -trace
// reproduces the stdin path's snapshots.
func cmdLoadgen(args []string) (retErr error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", "tcp", "transport to drive: http or tcp")
		addr      = fs.String("addr", "", "server address, or a comma-separated failover rotation (active router first, standby after); empty: spawn an in-process server on loopback")
		targets   = fs.String("targets", "", "comma-separated target addresses; tenants are partitioned across them (overrides -addr)")
		httpAddr  = fs.String("http-addr", "", "HTTP address of the target server for metrics/draining, or a comma-separated failover rotation (default: -addr in http mode)")
		httpTgts  = fs.String("http-targets", "", "comma-separated HTTP addresses (any order) polled for metrics/draining with -targets")
		tracePath = fs.String("trace", "", "drive a gentrace JSON file or a JSON-lines op stream instead of a synthetic workload")
		opsOut    = fs.String("ops-out", "", "write the op stream (creates, then arrivals) as JSON lines to this file and exit")
		benchKey  = fs.String("bench-key", "", "BENCH_serve.json section to record under (default: -mode)")
		benchNote = fs.String("bench-note", "", "free-form note recorded with the bench row (machine shape, topology)")
		tenants   = fs.Int("tenants", 4, "tenants to create and fan arrivals across")
		arrivals  = fs.Int("arrivals", 20000, "synthetic arrivals to send (ignored with -trace)")
		points    = fs.Int("points", 20, "points in the synthetic metric space")
		universe  = fs.Int("universe", 8, "universe size |S| of the synthetic workload")
		dist      = fs.String("dist", "uniform", "synthetic workload mix: uniform, zipf (skewed commodity popularity) or bundled (every request demands all of S)")
		zipfS     = fs.Float64("zipf-s", 1.5, "zipf exponent for -dist zipf (> 1; larger = more skew)")
		rate      = fs.Float64("rate", 0, "open-loop arrival schedule: target arrivals/s across all workers (0 = closed loop, as fast as the server admits)")
		conc      = fs.Int("conc", 4, "concurrent driver workers (connections in tcp mode)")
		batch     = fs.Int("batch", 64, "arrivals per HTTP request (http mode)")
		wireBatch = fs.Int("wire-batch", 64, "arrivals per binary BATCH frame (tcp mode)")
		window    = fs.Int("window", 0, "windowed acks: max in-flight arrivals per connection (0 = stream without acks; tcp mode)")
		seed      = fs.Int64("seed", 1, "workload + engine seed")
		algo      = fs.String("algo", "pd", "algorithm for a spawned server: pd or rand")
		shards    = fs.Int("shards", 0, "shards for a spawned server (0 = GOMAXPROCS)")
		trcSample = fs.Int("trace-sample", 0, "op-trace sample rate for a spawned server (1 in N arrivals; 0 = off) — the tracing-overhead benchmark knob")
		retry     = fs.Int("retry", 0, "retry a failed request or stream up to N times, rotating across the -addr/-http-addr failover lists; arrivals are idempotency-keyed so replays never double-serve (0 = fail fast)")
		retryWait = fs.Duration("retry-wait", 250*time.Millisecond, "pause between retries")
		latOut    = fs.String("latency-out", "", "write the full client-side latency histogram (JSON) to this file")
		benchDir  = fs.String("bench-out", "", "directory to write/update BENCH_serve.json")
		quiet     = fs.Bool("quiet", false, "suppress progress messages on stderr")
	)
	var prof profileFlags
	prof.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.startDeferred(&retErr)
	if err != nil {
		return err
	}
	defer stopProf()
	if *mode != "http" && *mode != "tcp" {
		return fmt.Errorf("loadgen: unknown mode %q (want http or tcp)", *mode)
	}
	// Validate the workload flags even when -trace overrides them: a typo'd
	// mix must fail loudly, never be silently ignored.
	switch *dist {
	case "uniform", "bundled":
	case "zipf":
		if *zipfS <= 1 {
			return fmt.Errorf("loadgen: -zipf-s must be > 1 (got %g)", *zipfS)
		}
	default:
		return fmt.Errorf("loadgen: unknown -dist %q (want uniform, zipf or bundled)", *dist)
	}
	if *rate < 0 {
		return fmt.Errorf("loadgen: -rate must be >= 0")
	}
	if *conc < 1 {
		*conc = 1
	}
	// The binary-wire knobs mean nothing over HTTP: fail loudly rather than
	// silently measure something other than what was asked for.
	if *mode == "http" {
		if *window > 0 {
			return fmt.Errorf("loadgen: -window requires -mode tcp")
		}
		wireBatchSet := false
		fs.Visit(func(f *flag.Flag) { wireBatchSet = wireBatchSet || f.Name == "wire-batch" })
		if wireBatchSet {
			return fmt.Errorf("loadgen: -wire-batch requires -mode tcp")
		}
	}
	if *wireBatch < 1 {
		*wireBatch = 1
	}
	if *window < 0 || *window > server.MaxAckWindow {
		return fmt.Errorf("loadgen: -window must be in 0..%d", server.MaxAckWindow)
	}
	// A batch frame larger than the window could never fit the in-flight
	// budget; clamp so windowed streams make progress.
	if *window > 0 && *wireBatch > *window {
		*wireBatch = *window
	}

	// Workload: a trace or op-stream file, or a synthetic uniform workload.
	var tr *workload.Trace
	var ops opSplit
	haveOps := false
	if *tracePath != "" {
		var rerr error
		ops, haveOps, tr, rerr = readWorkloadFile(*tracePath)
		if rerr != nil {
			return rerr
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		space := metric.RandomEuclidean(rng, *points, 2, 100)
		costs := cost.PowerLaw(*universe, 1, 1)
		switch *dist {
		case "uniform":
			tr = workload.Uniform(rng, space, costs, *arrivals, *universe/2+1)
		case "zipf":
			tr = workload.Zipf(rng, space, costs, *arrivals, *universe/2+1, *zipfS)
		case "bundled":
			tr = workload.Bundled(rng, space, costs, *arrivals)
		}
	}
	if !haveOps {
		ops = traceToOps(tr, *tenants)
	}
	if *opsOut != "" {
		return writeOpsFile(*opsOut, ops)
	}

	rp := clientRetry{attempts: *retry, wait: *retryWait}

	// Targets: -targets (tenant-partitioned fleet), an external -addr
	// (possibly a failover rotation), or a spawned in-process server.
	var tgts, metricsBases []*rotation
	for _, a := range splitAddrs(*targets) {
		tgts = append(tgts, newRotation(a))
	}
	for _, a := range splitAddrs(*httpTgts) {
		metricsBases = append(metricsBases, newRotation(a))
	}
	if len(tgts) == 0 {
		target := splitAddrs(*addr)
		metricsBase := splitAddrs(*httpAddr)
		if *mode == "http" && len(metricsBase) == 0 {
			metricsBase = target
		}
		if len(target) == 0 {
			srv, err := server.New(server.Config{
				HTTPAddr: "127.0.0.1:0",
				TCPAddr:  "127.0.0.1:0",
				Engine: engine.Config{
					Algorithm: *algo, Shards: *shards, Seed: *seed,
					TraceSample: *trcSample,
				},
			})
			if err != nil {
				return err
			}
			if err := srv.Start(); err != nil {
				return err
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			if *mode == "http" {
				target = []string{srv.HTTPAddr()}
			} else {
				target = []string{srv.TCPAddr()}
			}
			metricsBase = []string{srv.HTTPAddr()}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "loadgen: spawned server http=%s tcp=%s\n", srv.HTTPAddr(), srv.TCPAddr())
			}
		}
		tgts = []*rotation{newRotation(target...)}
		if len(metricsBase) > 0 {
			metricsBases = []*rotation{newRotation(metricsBase...)}
		}
	} else if len(metricsBases) == 0 {
		if hm := splitAddrs(*httpAddr); len(hm) > 0 {
			metricsBases = []*rotation{newRotation(hm...)}
		} else if *mode == "http" {
			metricsBases = tgts
		}
	}
	if rp.attempts == 0 {
		for _, ep := range append(append([]*rotation{}, tgts...), metricsBases...) {
			if len(ep.addrs) > 1 {
				return fmt.Errorf("loadgen: a failover address rotation needs -retry")
			}
		}
	}
	if rp.attempts > 0 && *mode == "tcp" && len(metricsBases) == 0 {
		return fmt.Errorf("loadgen: tcp -retry needs -http-addr to recover the resume cursor (GET /v1/tenants/{id}/served)")
	}

	servedBefore, _ := sumServed(metricsBases)

	// Phase 1: create the tenants (serialized; arrivals must not race
	// tenant existence across workers). Each create goes to the target its
	// tenant's arrivals will drive.
	if err := runCreates(*mode, tgts, ops.creates, *conc, rp); err != nil {
		return err
	}

	// Phase 2: drive arrivals with conc workers, tenants partitioned by
	// worker so per-tenant order is preserved. Frame rendering happens
	// before the clock starts — the measurement is server ingestion, not
	// client-side encoding. (Retry mode keeps the raw ops instead: a resumed
	// stream re-renders from the surviving cursor.)
	work, err := prepareDrive(*mode, ops, *conc, *rate, *wireBatch, *window, rp)
	if err != nil {
		return err
	}
	start := time.Now()
	lats, streamLats, err := runArrivals(*mode, tgts, metricsBases, work, *batch, rp)
	if err != nil {
		return err
	}
	sent := len(ops.arrives)

	// The TCP ack (and an HTTP 200) mean admitted, not served: wait until
	// the servers report everything served before stopping the clock.
	// Without an HTTP address to poll (tcp mode against an external server
	// with no -http-addr) the number would measure admission instead —
	// say so loudly rather than silently reporting an inflated rate.
	if len(metricsBases) > 0 {
		if err := waitServed(metricsBases, servedBefore+int64(sent), 30*time.Second); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(os.Stderr, "loadgen: warning: no -http-addr to poll — reported"+
			" arrivals/s measures admission (mailbox backlog excluded); pass -http-addr"+
			" for drain-aware timing")
	}
	elapsed := time.Since(start)

	rep := loadgenReport{
		Mode:           *mode,
		Arrivals:       sent,
		Tenants:        *tenants,
		Concurrency:    *conc,
		ElapsedSeconds: elapsed.Seconds(),
		ArrivalsPerSec: float64(sent) / elapsed.Seconds(),
		OfferedRate:    *rate,
	}
	if *tracePath == "" {
		rep.Dist = *dist
	}
	if *mode == "http" {
		rep.Batch = *batch
	} else {
		rep.Batch = *wireBatch
		rep.Window = *window
	}
	if len(tgts) > 1 {
		rep.Targets = len(tgts)
	}
	rep.Note = *benchNote
	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.RequestP50Millis = lats[len(lats)/2]
		rep.RequestP99Millis = lats[(len(lats)*99)/100]
	}
	// Engine-side latency is a per-server number — meaningful only when a
	// single endpoint served everything (a node, or a router's merged view
	// would need per-node breakdowns the report has no room for).
	if len(metricsBases) == 1 {
		if m, err := serverMetrics(metricsBases[0]); err == nil {
			rep.ServeLatencyP50Micros = m.LatencyP50Micros
			rep.ServeLatencyP99Micros = m.LatencyP99Micros
		}
	}

	if *latOut != "" {
		if err := writeLatencyFile(*latOut, *mode, lats, streamLats); err != nil {
			return err
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *benchDir != "" {
		key := *benchKey
		if key == "" {
			key = rep.Mode
		}
		if err := writeServeBench(*benchDir, key, rep); err != nil {
			return err
		}
	}
	return nil
}

// splitAddrs splits a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// rotation is one logical endpoint with failover alternates (an active
// router first, its standby after): pick returns the address to try, fail
// advances the rotation so the next attempt lands on the alternate.
type rotation struct {
	mu    sync.Mutex
	addrs []string
	cur   int
}

func newRotation(addrs ...string) *rotation { return &rotation{addrs: addrs} }

func (r *rotation) pick() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addrs[r.cur]
}

func (r *rotation) fail() {
	r.mu.Lock()
	r.cur = (r.cur + 1) % len(r.addrs)
	r.mu.Unlock()
}

// clientRetry is the driver-side retry policy: attempts extra tries after
// the first (0 = fail fast), pausing wait between them.
type clientRetry struct {
	attempts int
	wait     time.Duration
}

// getJSONRot GETs path from the rotation, trying each alternate once per
// call (a 5xx — e.g. a standby's 503 — rotates like a transport error).
// Outer polling loops supply the retry-over-time.
func getJSONRot(ep *rotation, path string, out interface{}) error {
	var lastErr error
	for i := 0; i < len(ep.addrs); i++ {
		resp, err := http.Get("http://" + ep.pick() + path)
		if err != nil {
			lastErr = err
			ep.fail()
			continue
		}
		if resp.StatusCode/100 != 2 {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body) //nolint:errcheck // best-effort error text
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(buf.String()))
			ep.fail()
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		return err
	}
	return lastErr
}

// readWorkloadFile loads -trace input in either format the serve CLI
// accepts: a JSON-lines op stream (returned as an opSplit directly) or a
// gentrace trace document. The first non-blank line decides, exactly like
// engine.ReplayReader.
func readWorkloadFile(path string) (opSplit, bool, *workload.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return opSplit{}, false, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	peek, _ := br.Peek(1 << 16)
	firstLine := peek
	if i := bytes.IndexByte(peek, '\n'); i >= 0 {
		firstLine = peek[:i]
	}
	var probe engine.Op
	if json.Unmarshal(bytes.TrimSpace(firstLine), &probe) == nil && probe.Op != "" {
		var ops opSplit
		dec := json.NewDecoder(br)
		for dec.More() {
			var op engine.Op
			if err := dec.Decode(&op); err != nil {
				return opSplit{}, false, nil, fmt.Errorf("loadgen: decoding op stream %s: %v", path, err)
			}
			switch op.Op {
			case "create":
				ops.creates = append(ops.creates, op)
			case "arrive":
				ops.arrives = append(ops.arrives, op)
			default:
				return opSplit{}, false, nil, fmt.Errorf("loadgen: op stream %s: unsupported op %q", path, op.Op)
			}
		}
		return ops, true, nil, nil
	}
	tr, err := workload.ReadJSON(br)
	if err != nil {
		return opSplit{}, false, nil, err
	}
	return opSplit{}, false, tr, nil
}

// writeOpsFile dumps the op stream as JSON lines — creates first, then
// arrivals in trace order — the shape both the serve CLI's stdin path and
// loadgen's own -trace accept, so one dump drives every ingestion path.
func writeOpsFile(path string, ops opSplit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(bw)
	for _, op := range ops.creates {
		if err := enc.Encode(op); err != nil {
			f.Close()
			return err
		}
	}
	for _, op := range ops.arrives {
		if err := enc.Encode(op); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadgenReport is the machine-readable result of one loadgen run.
type loadgenReport struct {
	Mode     string `json:"mode"`
	Arrivals int    `json:"arrivals"`
	Tenants  int    `json:"tenants"`
	// Dist names the synthetic workload mix (uniform/zipf/bundled); empty
	// for trace-driven runs.
	Dist        string `json:"dist,omitempty"`
	Concurrency int    `json:"concurrency"`
	// Batch is arrivals per HTTP request (http mode) or per binary BATCH
	// frame (tcp mode).
	Batch int `json:"batch,omitempty"`
	// Window is the windowed-ack in-flight budget (0 = no acks); tcp mode
	// only.
	Window int `json:"window,omitempty"`
	// Targets counts the endpoints a -targets run partitioned tenants
	// across; absent for single-endpoint runs.
	Targets int `json:"targets,omitempty"`
	// OfferedRate is the open-loop arrivals/s target (0 = closed loop);
	// compare with ArrivalsPerSec to see whether the server kept up.
	OfferedRate    float64 `json:"offered_rate_per_sec,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ArrivalsPerSec float64 `json:"arrivals_per_sec"`
	// Request latencies are client-side per-HTTP-request round trips;
	// absent in tcp mode (the framed protocol acks once per stream).
	RequestP50Millis float64 `json:"request_p50_ms,omitempty"`
	RequestP99Millis float64 `json:"request_p99_ms,omitempty"`
	// Serve latencies are the engine-side per-arrival quantiles.
	ServeLatencyP50Micros float64 `json:"serve_latency_p50_us,omitempty"`
	ServeLatencyP99Micros float64 `json:"serve_latency_p99_us,omitempty"`
	// Note carries free-form run context (-bench-note), e.g. the machine
	// shape a cluster ratio was measured on.
	Note string `json:"note,omitempty"`
}

// opSplit is a trace rewritten as creates + arrivals in op form.
type opSplit struct {
	creates []engine.Op
	arrives []engine.Op
}

// traceToOps mirrors engine.ReplayTrace's fan-out: tenant-%03d names,
// arrival i to tenant i%tenants — so a driven server lands on the same
// snapshots as the stdin path.
func traceToOps(tr *workload.Trace, tenants int) opSplit {
	if tenants < 1 {
		tenants = 1
	}
	in := tr.Instance
	n := in.Space.Len()
	u := in.Universe()
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = in.Space.Distance(i, j)
		}
	}
	bySize := make([]float64, u+1)
	for k := 1; k <= u; k++ {
		bySize[k] = in.Costs.Cost(0, commodity.Full(k))
	}
	var out opSplit
	for i := 0; i < tenants; i++ {
		out.creates = append(out.creates, engine.Op{
			Op: "create", Tenant: fmt.Sprintf("tenant-%03d", i),
			Universe: u, Distances: dist, CostBySize: bySize,
		})
	}
	for i, r := range in.Requests {
		out.arrives = append(out.arrives, engine.Op{
			Op: "arrive", Tenant: fmt.Sprintf("tenant-%03d", i%tenants),
			Point: r.Point, Demands: r.Demands.IDs(),
		})
	}
	return out
}

// tenantWorker maps a tenant name to its driving worker. Hashing (rather
// than parsing a tenant-%03d index) keeps the partition stable for
// arbitrary tenant names in op-stream inputs; per-tenant arrival order is
// preserved either way because a tenant always lands on one worker.
func tenantWorker(tenant string, conc int) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(conc))
}

// runCreates registers the tenants: POSTs in http mode, one awaited framed
// stream per target in tcp mode. Each create goes to the same target its
// tenant's arrivals will drive (worker w drives tgts[w mod len]). In retry
// mode creates go one per attempt so a replayed create that already landed
// (duplicate tenant / 409) counts as success instead of failing the group.
func runCreates(mode string, tgts []*rotation, creates []engine.Op, conc int, rp clientRetry) error {
	byTarget := make([][]engine.Op, len(tgts))
	for _, op := range creates {
		t := tenantWorker(op.Tenant, conc) % len(tgts)
		byTarget[t] = append(byTarget[t], op)
	}
	for t, group := range byTarget {
		if len(group) == 0 {
			continue
		}
		switch {
		case mode == "http":
			for _, op := range group {
				if err := createHTTP(tgts[t], op, rp); err != nil {
					return fmt.Errorf("loadgen: creating %s: %v", op.Tenant, err)
				}
			}
		case rp.attempts > 0:
			for _, op := range group {
				if err := createTCP(tgts[t], op, rp); err != nil {
					return fmt.Errorf("loadgen: creating %s: %v", op.Tenant, err)
				}
			}
		default:
			if err := streamCreates(tgts[t].pick(), group); err != nil {
				return err
			}
		}
	}
	return nil
}

// createHTTP registers one tenant over HTTP, retrying across the rotation.
// A 409 on a retry is a replay of a create that landed before the failure.
func createHTTP(ep *rotation, op engine.Op, rp clientRetry) error {
	body := map[string]interface{}{
		"universe": op.Universe, "distances": op.Distances, "cost_by_size": op.CostBySize,
	}
	for attempt := 0; ; attempt++ {
		_, status, err := postJSONStatus(ep.pick(), "/v1/tenants/"+op.Tenant, body)
		if err == nil {
			return nil
		}
		if attempt > 0 && status == http.StatusConflict {
			return nil
		}
		if attempt >= rp.attempts {
			return err
		}
		ep.fail()
		time.Sleep(rp.wait)
	}
}

// createTCP registers one tenant over its own framed stream, retrying
// across the rotation with the same replayed-create tolerance.
func createTCP(ep *rotation, op engine.Op, rp clientRetry) error {
	for attempt := 0; ; attempt++ {
		err := streamCreates(ep.pick(), []engine.Op{op})
		if err == nil {
			return nil
		}
		if attempt > 0 && errors.Is(err, errStreamDuplicate) {
			return nil
		}
		if attempt >= rp.attempts {
			return err
		}
		ep.fail()
		time.Sleep(rp.wait)
	}
}

// driveWork is one worker's pre-partitioned (and, in tcp mode,
// pre-rendered) share of the arrival stream.
type driveWork struct {
	ops      []engine.Op // http mode; also tcp retry mode (resume re-renders)
	blob     []byte      // tcp without pacing or acks: concatenated frames, ready to write
	bin      []binFrame  // tcp with pacing and/or windowed acks
	window   int
	arrivals int
	// wireBatch survives into tcp retry mode, where each attempt renders
	// frames from the ops that remain after the resume cursor.
	wireBatch int
	// rate is this worker's open-loop target in arrivals/s — its
	// proportional share of the global -rate (0 = closed loop).
	rate float64
}

// binFrame is one pre-rendered binary wire frame (length prefix included)
// with the arrival count it carries (0 for BIND and WINDOW frames).
type binFrame struct {
	data     []byte
	arrivals int
}

// renderBinary renders one worker's ops as binary wire frames: a leading
// WINDOW frame when windowed acks are on, a BIND on each tenant's first
// use, and arrivals coalesced per tenant into BATCH frames (a bare ARRIVE
// for singletons) of at most batchCap arrivals. Coalescing reorders ops
// across tenants — each tenant's buffer is flushed when it fills, not when
// another tenant's op interleaves — which is safe because tenants are
// independent instances; per-tenant arrival order is preserved, so
// snapshots are byte-identical to any other interleaving.
func renderBinary(ops []engine.Op, batchCap, window int) ([]binFrame, error) {
	var out []binFrame
	var fb bytes.Buffer
	emit := func(payload []byte, arrivals int) error {
		fb.Reset()
		if err := server.WriteFrame(&fb, payload); err != nil {
			return err
		}
		out = append(out, binFrame{data: append([]byte(nil), fb.Bytes()...), arrivals: arrivals})
		return nil
	}
	if window > 0 {
		if err := emit(server.AppendWireWindow(nil, window, false), 0); err != nil {
			return nil, err
		}
	}
	refs := make(map[string]uint64)
	pending := make(map[string][]server.WireItem)
	var order []string // tenants in first-seen order, for a deterministic final drain
	flush := func(tenant string) error {
		items := pending[tenant]
		if len(items) == 0 {
			return nil
		}
		ref, ok := refs[tenant]
		if !ok {
			ref = uint64(len(refs))
			refs[tenant] = ref
			if err := emit(server.AppendWireBind(nil, ref, tenant), 0); err != nil {
				return err
			}
		}
		var payload []byte
		if len(items) == 1 {
			payload = server.AppendWireArrive(nil, ref, items[0].Point, items[0].Demands)
		} else {
			payload = server.AppendWireBatch(nil, ref, items)
		}
		if err := emit(payload, len(items)); err != nil {
			return err
		}
		pending[tenant] = items[:0]
		return nil
	}
	for _, op := range ops {
		items, seen := pending[op.Tenant]
		if !seen {
			order = append(order, op.Tenant)
		}
		pending[op.Tenant] = append(items, server.WireItem{Point: op.Point, Demands: op.Demands})
		if len(pending[op.Tenant]) >= batchCap {
			if err := flush(op.Tenant); err != nil {
				return nil, err
			}
		}
	}
	for _, tenant := range order {
		if err := flush(tenant); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prepareDrive partitions the arrivals across conc workers (tenant t on
// worker t%conc, preserving per-tenant order) and, in tcp mode, renders the
// binary frames up front: one blob per worker in closed-loop mode,
// individual frames when an open-loop -rate or an ack window needs per-send
// control.
// Each worker's rate is its arrival share of the global rate, so all
// workers finish the schedule together and the offered aggregate equals
// -rate.
func prepareDrive(mode string, ops opSplit, conc int, rate float64, wireBatch, window int, rp clientRetry) ([]driveWork, error) {
	work := make([]driveWork, conc)
	for _, op := range ops.arrives {
		w := &work[tenantWorker(op.Tenant, conc)]
		w.ops = append(w.ops, op)
		w.arrivals++
	}
	if rate > 0 && len(ops.arrives) > 0 {
		for i := range work {
			work[i].rate = rate * float64(work[i].arrivals) / float64(len(ops.arrives))
		}
	}
	if mode != "tcp" {
		return work, nil
	}
	if rp.attempts > 0 {
		// Retry mode keeps the raw ops: a broken stream resumes by asking
		// the cluster how much was admitted and re-rendering the rest.
		for i := range work {
			work[i].wireBatch, work[i].window = wireBatch, window
		}
		return work, nil
	}
	for i := range work {
		bin, err := renderBinary(work[i].ops, wireBatch, window)
		if err != nil {
			return nil, err
		}
		if rate == 0 && window == 0 {
			// No pacing, no acks: collapse into one blob and take the
			// bulk-write path.
			var blob bytes.Buffer
			for _, fr := range bin {
				blob.Write(fr.data)
			}
			work[i].blob = blob.Bytes()
		} else {
			work[i].bin = bin
			work[i].window = window
		}
		work[i].ops = nil
	}
	return work, nil
}

// pace sleeps until arrival idx's scheduled send time under an open-loop
// schedule of rate arrivals/s started at start; no-op in closed-loop mode.
func pace(start time.Time, rate float64, idx int) {
	if rate <= 0 {
		return
	}
	target := start.Add(time.Duration(float64(idx) / rate * float64(time.Second)))
	if d := time.Until(target); d > 0 {
		time.Sleep(d)
	}
}

// runArrivals fans the prepared work across its workers — worker w driving
// tgts[w mod len(tgts)] — and returns client-side latencies: per-request
// round trips in http mode, per-stream round trips (dial to ack) in tcp
// mode. Both in milliseconds.
func runArrivals(mode string, tgts, metricsBases []*rotation, work []driveWork, batch int, rp clientRetry) (reqLats, streamLats []float64, err error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := range work {
		if work[w].arrivals == 0 {
			continue
		}
		target := tgts[w%len(tgts)]
		var httpEp *rotation
		if len(metricsBases) > 0 {
			httpEp = metricsBases[w%len(metricsBases)]
		}
		wg.Add(1)
		go func(w driveWork) {
			defer wg.Done()
			var lats []float64
			var err error
			start := time.Now()
			switch {
			case mode == "http":
				lats, err = driveHTTP(target, w.ops, batch, w.rate, rp)
			case rp.attempts > 0:
				err = streamResumable(target, httpEp, w, rp)
			case w.bin != nil:
				err = streamBinary(target.pick(), w.bin, w.rate, w.window, w.arrivals)
			default:
				err = streamBlob(target.pick(), w.blob, w.arrivals)
			}
			stream := float64(time.Since(start).Microseconds()) / 1e3
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			reqLats = append(reqLats, lats...)
			if mode != "http" {
				streamLats = append(streamLats, stream)
			}
			mu.Unlock()
		}(work[w])
	}
	wg.Wait()
	return reqLats, streamLats, firstErr
}

// streamResumable drives one worker's ops with failover: every attempt
// streams whatever remains past the resume cursor, and a broken stream
// recovers by polling the cluster for each tenant's admitted count (GET
// /v1/tenants/{id}/served) before retrying — possibly against the rotation's
// alternate router. Cursors assume this loadgen run is each tenant's only
// writer, starting at stream position 0 (the same assumption the snapshot
// goldens make), so admitted counts translate directly into op indices.
func streamResumable(ep, httpEp *rotation, w driveWork, rp clientRetry) error {
	admitted := make(map[string]int64)
	for attempt := 0; ; attempt++ {
		remaining := w.ops
		if attempt > 0 {
			if err := pollAdmitted(httpEp, w.ops, admitted, rp.wait); err != nil {
				return err
			}
			remaining = trimAdmitted(w.ops, admitted)
		}
		err := streamOnce(ep.pick(), remaining, w)
		if err == nil {
			return nil
		}
		if attempt >= rp.attempts {
			return err
		}
		ep.fail()
		time.Sleep(rp.wait)
	}
}

// streamOnce renders and drives one attempt's remaining ops.
func streamOnce(target string, ops []engine.Op, w driveWork) error {
	if len(ops) == 0 {
		return nil
	}
	bin, err := renderBinary(ops, w.wireBatch, w.window)
	if err != nil {
		return err
	}
	return streamBinary(target, bin, w.rate, w.window, len(ops))
}

// pollAdmitted learns each tenant's admitted count — the resume cursor
// after a broken stream. It waits for the count to hold still across two
// polls so frames from the dead connection that are still draining (or a
// follower promotion settling) get counted before the replay is cut.
func pollAdmitted(httpEp *rotation, ops []engine.Op, out map[string]int64, wait time.Duration) error {
	if httpEp == nil {
		return fmt.Errorf("loadgen: no HTTP endpoint to recover the resume cursor from")
	}
	if wait < 10*time.Millisecond {
		wait = 10 * time.Millisecond
	}
	seen := make(map[string]bool)
	deadline := time.Now().Add(30 * time.Second)
	for _, op := range ops {
		if seen[op.Tenant] {
			continue
		}
		seen[op.Tenant] = true
		var doc struct {
			Served   int64 `json:"served"`
			Admitted int64 `json:"admitted"`
		}
		prev := int64(-1)
		for {
			if err := getJSONRot(httpEp, "/v1/tenants/"+op.Tenant+"/served", &doc); err != nil {
				if time.Now().After(deadline) {
					return fmt.Errorf("loadgen: resume cursor for %s: %v", op.Tenant, err)
				}
				time.Sleep(wait)
				continue
			}
			if doc.Admitted == prev {
				out[op.Tenant] = doc.Admitted
				break
			}
			prev = doc.Admitted
			if time.Now().After(deadline) {
				out[op.Tenant] = doc.Admitted
				break
			}
			time.Sleep(wait)
		}
	}
	return nil
}

// trimAdmitted drops each tenant's already-admitted prefix from the op
// stream — what remains is exactly what the cluster has not seen.
func trimAdmitted(ops []engine.Op, admitted map[string]int64) []engine.Op {
	cut := make(map[string]int64, len(admitted))
	var out []engine.Op
	for _, op := range ops {
		if cut[op.Tenant] < admitted[op.Tenant] {
			cut[op.Tenant]++
			continue
		}
		out = append(out, op)
	}
	return out
}

// streamBlob writes a pre-rendered frame blob over one connection,
// half-closes and checks the server's ack.
func streamBlob(target string, blob []byte, arrivals int) error {
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(blob); err != nil {
		return err
	}
	return finishStream(conn, arrivals)
}

// streamBinary drives one worker's pre-rendered binary frames over a single
// connection, pacing sends under an open-loop rate and honoring a
// windowed-ack budget. A reader goroutine owns every inbound frame: ACKs
// advance the in-flight budget, and the stream's JSON result frame ends it.
func streamBinary(target string, frames []binFrame, rate float64, window int, arrivals int) error {
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<16)

	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		acked  int
		rdErr  error
		result *server.TCPResult
	)
	done := make(chan struct{})
	fail := func(err error) {
		mu.Lock()
		rdErr = err
		cond.Broadcast()
		mu.Unlock()
	}
	go func() {
		defer close(done)
		br := bufio.NewReaderSize(conn, 1<<16)
		buf := make([]byte, 0, 4096)
		for {
			frame, err := server.ReadFrame(br, buf)
			if err != nil {
				fail(err)
				return
			}
			if server.IsBinaryFrame(frame) {
				op, body, err := server.WireFrameKind(frame)
				if err == nil && op != server.WireAck {
					err = fmt.Errorf("unexpected binary op 0x%02x from server", op)
				}
				if err != nil {
					fail(err)
					return
				}
				ack, err := server.DecodeWireAck(body)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				acked += len(ack.Codes)
				cond.Broadcast()
				mu.Unlock()
				buf = frame[:0]
				continue
			}
			var res server.TCPResult
			if err := json.Unmarshal(frame, &res); err != nil {
				fail(err)
				return
			}
			mu.Lock()
			result = &res
			cond.Broadcast()
			mu.Unlock()
			return
		}
	}()

	sent := 0
	start := time.Now()
	for _, fr := range frames {
		pace(start, rate, sent)
		if window > 0 && fr.arrivals > 0 {
			mu.Lock()
			if rdErr == nil && sent+fr.arrivals-acked > window {
				// About to block on acks: frames parked in our write buffer
				// are invisible to the server, so push them first.
				mu.Unlock()
				if err := bw.Flush(); err != nil {
					return err
				}
				mu.Lock()
				for rdErr == nil && sent+fr.arrivals-acked > window {
					cond.Wait()
				}
			}
			err := rdErr
			mu.Unlock()
			if err != nil {
				return fmt.Errorf("loadgen: ack stream: %v", err)
			}
		}
		if _, err := bw.Write(fr.data); err != nil {
			return err
		}
		sent += fr.arrivals
		if rate > 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return err
		}
	}
	<-done
	mu.Lock()
	res, readErr, ackTotal := result, rdErr, acked
	mu.Unlock()
	if res == nil {
		return fmt.Errorf("loadgen: stream ended without result: %v", readErr)
	}
	if !res.OK {
		return fmt.Errorf("loadgen: server rejected stream: %s", res.Error)
	}
	if res.Arrivals != arrivals {
		return fmt.Errorf("loadgen: server acked %d of %d arrivals", res.Arrivals, arrivals)
	}
	if window > 0 && ackTotal != arrivals {
		return fmt.Errorf("loadgen: windowed stream acked %d of %d arrivals", ackTotal, arrivals)
	}
	return nil
}

// errStreamDuplicate marks a stream the server rejected for a duplicate
// tenant — on a retry, the footprint of a create that landed before the
// failure, which the retrying caller treats as success.
var errStreamDuplicate = errors.New("loadgen: stream rejected: duplicate tenant")

// finishStream half-closes the write side of a frame stream and verifies
// the server's single result frame acks exactly the arrivals sent — the
// shared tail of every TCP drive path.
func finishStream(conn net.Conn, arrivals int) error {
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return err
		}
	}
	frame, err := server.ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		return err
	}
	var res server.TCPResult
	if err := json.Unmarshal(frame, &res); err != nil {
		return err
	}
	if !res.OK {
		if res.Code == server.CodeDuplicateTenant {
			return errStreamDuplicate
		}
		return fmt.Errorf("loadgen: server rejected stream: %s", res.Error)
	}
	if res.Arrivals != arrivals {
		return fmt.Errorf("loadgen: server acked %d of %d arrivals", res.Arrivals, arrivals)
	}
	return nil
}

// driveHTTP sends one worker's arrivals as batched POSTs, measuring each
// request's round trip. Batches coalesce per tenant across the op stream —
// tenants are independent instances, so posting tenant B's arrivals before
// tenant A's earlier ones changes no tenant's outcome as long as each
// tenant's own order is preserved, and a tenant-interleaved workload still
// fills real batches (the same reordering renderBinary applies on the
// binary wire). With an open-loop rate, each batch waits for its first
// arrival's slot on the schedule before posting.
func driveHTTP(ep *rotation, ops []engine.Op, batch int, rate float64, rp clientRetry) ([]float64, error) {
	if batch < 1 {
		batch = 1
	}
	type arrival struct {
		Point   int   `json:"point"`
		Demands []int `json:"demands"`
	}
	var lats []float64
	clock := time.Now()
	sent := 0
	pos := make(map[string]int64)   // per-tenant stream cursor (idempotency keys)
	seeded := make(map[string]bool) // tenants whose cursor was read from the cluster
	pending := make(map[string][]arrival)
	var order []string // tenants in first-seen order, for a deterministic final drain
	flush := func(tenant string) error {
		group := pending[tenant]
		if len(group) == 0 {
			return nil
		}
		pace(clock, rate, sent)
		body := map[string]interface{}{"arrivals": group}
		start := time.Now()
		var err error
		if rp.attempts > 0 {
			// Key the batch by its stream position so replays after an
			// ambiguous failure are trimmed server-side, never double-served.
			// The cursor starts at the tenant's current admitted count (read
			// once per tenant), so a keyed run resumes a pre-served tenant —
			// an earlier phase, a run cut short — instead of wrongly deduping
			// against position 0. Keys still assume this run is the tenant's
			// only concurrent writer, which is why they are opt-in via -retry.
			if !seeded[tenant] {
				var doc struct {
					Admitted int64 `json:"admitted"`
				}
				for attempt := 0; ; attempt++ {
					err = getJSONRot(ep, "/v1/tenants/"+tenant+"/served", &doc)
					if err == nil || attempt >= rp.attempts {
						break
					}
					time.Sleep(rp.wait)
				}
				if err != nil {
					return fmt.Errorf("loadgen: reading %s's resume cursor: %v", tenant, err)
				}
				pos[tenant] = doc.Admitted
				seeded[tenant] = true
			}
			hdr := map[string]string{server.IdemHeader: strconv.FormatInt(pos[tenant], 10)}
			for attempt := 0; ; attempt++ {
				_, _, err = postJSONHdr(ep.pick(), "/v1/tenants/"+tenant+"/arrive", body, hdr)
				if err == nil || attempt >= rp.attempts {
					break
				}
				ep.fail()
				time.Sleep(rp.wait)
			}
		} else {
			_, err = postJSON(ep.pick(), "/v1/tenants/"+tenant+"/arrive", body)
		}
		lats = append(lats, float64(time.Since(start).Microseconds())/1e3)
		sent += len(group)
		pos[tenant] += int64(len(group))
		pending[tenant] = group[:0]
		return err
	}
	for _, op := range ops {
		group, seen := pending[op.Tenant]
		if !seen {
			order = append(order, op.Tenant)
		}
		pending[op.Tenant] = append(group, arrival{Point: op.Point, Demands: op.Demands})
		if len(pending[op.Tenant]) >= batch {
			if err := flush(op.Tenant); err != nil {
				return lats, err
			}
		}
	}
	for _, tenant := range order {
		if err := flush(tenant); err != nil {
			return lats, err
		}
	}
	return lats, nil
}

// streamCreates sends create ops as JSON frames on one stream, half-closes
// and awaits the server's result frame.
func streamCreates(target string, creates []engine.Op) error {
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<16)
	for _, op := range creates {
		payload, err := json.Marshal(op)
		if err != nil {
			return err
		}
		if err := server.WriteFrame(bw, payload); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return finishStream(conn, 0)
}

func postJSON(host, path string, body interface{}) ([]byte, error) {
	data, _, err := postJSONHdr(host, path, body, nil)
	return data, err
}

// postJSONStatus is postJSON with the response status exposed, for callers
// that treat specific statuses (a create replay's 409) as success.
func postJSONStatus(host, path string, body interface{}) ([]byte, int, error) {
	return postJSONHdr(host, path, body, nil)
}

func postJSONHdr(host, path string, body interface{}, hdr map[string]string) ([]byte, int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest("POST", "http://"+host+path, bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // best-effort error text
	if resp.StatusCode/100 != 2 {
		return buf.Bytes(), resp.StatusCode, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, buf.String())
	}
	return buf.Bytes(), resp.StatusCode, nil
}

func serverMetrics(ep *rotation) (engine.Metrics, error) {
	var m engine.Metrics
	err := getJSONRot(ep, "/v1/metrics", &m)
	return m, err
}

// sumServed totals the served counts across all polled endpoints (a
// cluster router's /v1/metrics reports its own cluster-wide total, so a
// router counts once; a rotation counts once via whichever alternate
// answers).
func sumServed(eps []*rotation) (int64, error) {
	var total int64
	for _, ep := range eps {
		m, err := serverMetrics(ep)
		if err != nil {
			return total, err
		}
		total += m.Served
	}
	return total, nil
}

// waitServed polls the endpoints until their summed served count reaches
// want.
func waitServed(eps []*rotation, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		total, err := sumServed(eps)
		if err == nil && total >= want {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("loadgen: waiting for drain: %v", err)
			}
			return fmt.Errorf("loadgen: servers served %d of %d arrivals before timeout", total, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// latencyDoc is the -latency-out artifact: the client-side latency
// distribution in full — exact quantiles from the sorted samples plus the
// power-of-two histogram (obs.HistSummary) so runs can be merged or
// re-quantiled downstream.
type latencyDoc struct {
	Mode string `json:"mode"`
	// Unit names what one sample measures: an HTTP request round trip or a
	// whole framed-TCP stream (dial to result frame).
	Unit       string  `json:"unit"`
	Count      int     `json:"count"`
	P50Millis  float64 `json:"p50_ms"`
	P90Millis  float64 `json:"p90_ms"`
	P99Millis  float64 `json:"p99_ms"`
	P999Millis float64 `json:"p999_ms"`
	MaxMillis  float64 `json:"max_ms"`
	// Hist is the same power-of-two-bucket histogram the engine exposes
	// (buckets in nanoseconds, quantiles in microseconds).
	Hist obs.HistSummary `json:"hist"`
}

// writeLatencyFile renders the client-side latency histogram: per-request
// samples in http mode, per-stream samples in tcp mode.
func writeLatencyFile(path, mode string, reqLats, streamLats []float64) error {
	samples, unit := reqLats, "http_request_round_trip"
	if mode != "http" {
		samples, unit = streamLats, "tcp_stream_round_trip"
	}
	doc := latencyDoc{Mode: mode, Unit: unit, Count: len(samples)}
	if len(samples) > 0 {
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		exact := func(q float64) float64 {
			i := int(q * float64(len(sorted)))
			if i >= len(sorted) {
				i = len(sorted) - 1
			}
			return sorted[i]
		}
		doc.P50Millis = exact(0.50)
		doc.P90Millis = exact(0.90)
		doc.P99Millis = exact(0.99)
		doc.P999Millis = exact(0.999)
		doc.MaxMillis = sorted[len(sorted)-1]
		var h obs.Hist
		for _, ms := range sorted {
			h.RecordNs(int64(ms * 1e6))
		}
		var sum [obs.HistBuckets]int64
		h.AddTo(&sum)
		doc.Hist = obs.Summarize(sum)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeServeBench writes or updates BENCH_serve.json in dir under key
// (default: the transport mode; cluster runs pass -bench-key so router and
// direct-fleet numbers land in their own sections), so runs accumulate
// into one artifact.
func writeServeBench(dir, key string, rep loadgenReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_serve.json")
	doc := struct {
		Benchmark string                   `json:"benchmark"`
		Modes     map[string]loadgenReport `json:"modes"`
	}{Benchmark: "omflp loadgen: network serve throughput", Modes: map[string]loadgenReport{}}
	if data, err := os.ReadFile(path); err == nil {
		json.Unmarshal(data, &doc) //nolint:errcheck // a corrupt file is simply rewritten
		if doc.Modes == nil {
			doc.Modes = map[string]loadgenReport{}
		}
	}
	doc.Modes[key] = rep
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
