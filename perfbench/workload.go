package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
)

// spec is one workload's fixed shape. openRate is set once from the
// workload's closed-loop throughput on a 2-core machine (see README.md) and
// is never derived at run time.
type spec struct {
	name     string
	tenants  int
	closed   int     // closed-loop arrivals per tenant
	openRate float64 // open-loop arrivals/s over all connections
	// reps is how many times a run sets a system up and drives both loops
	// on it; every end-to-end metric but restore_s is the median over
	// them. long-history runs fewer: each of its repetitions grows four
	// tenants to 1e5 arrivals and ends with a 30 MB shutdown checkpoint.
	reps int
	// checkpoint: the server checkpoints into a directory (default
	// SealEvery), and an HTTP reader checkpoints and reads a compact
	// snapshot about once a second during the open loop.
	checkpoint bool
	routed     bool // cluster router, Replicate on, 2 workers of 1 shard
}

var specs = []spec{
	{name: "fresh-many", tenants: 2048, closed: 1000, openRate: 330000, reps: 5},
	{name: "long-history", tenants: 4, closed: 100000, openRate: 15000, reps: 3, checkpoint: true},
	{name: "routed-replicated", tenants: 256, closed: 2000, openRate: 150000, reps: 9, routed: true},
}

func specNamed(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

const (
	// closedWindow is each connection's in-flight arrival budget in the
	// closed loop (256 BATCH frames).
	closedWindow = 256 * batchSize
	// serverShards is the shard count of the single-server workloads.
	serverShards = 2
)

// system is one running topology: a server, or a router over workers.
type system struct {
	servers []*server.Server
	router  *cluster.Router
	tcp     string // client-facing framed-op address
	http    string // client-facing HTTP address
}

func serverConfig(sp spec, seed int64, dir string) server.Config {
	cfg := server.Config{
		HTTPAddr: "127.0.0.1:0",
		TCPAddr:  "127.0.0.1:0",
		Engine:   engine.Config{Shards: serverShards, ShardPolicy: engine.PolicyLeastLoad, Seed: seed},
	}
	if sp.routed {
		cfg.Engine.Shards = 1
	}
	if sp.checkpoint {
		cfg.CheckpointDir = dir
		// Checkpoints come from the workload's HTTP reader, not a timer.
		cfg.CheckpointEvery = time.Hour
	}
	return cfg
}

func startSystem(sp spec, seed int64, dir string) (*system, error) {
	sys := &system{}
	nservers := 1
	if sp.routed {
		nservers = 2
	}
	for i := 0; i < nservers; i++ {
		srv, err := server.New(serverConfig(sp, seed, dir))
		if err == nil {
			err = srv.Start()
		}
		if err != nil {
			sys.shutdown()
			return nil, err
		}
		sys.servers = append(sys.servers, srv)
	}
	if !sp.routed {
		sys.tcp, sys.http = sys.servers[0].TCPAddr(), sys.servers[0].HTTPAddr()
		return sys, nil
	}
	r, err := cluster.New(cluster.Config{
		HTTPAddr:  "127.0.0.1:0",
		TCPAddr:   "127.0.0.1:0",
		Nodes:     []string{sys.servers[0].HTTPAddr(), sys.servers[1].HTTPAddr()},
		Replicate: true,
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

func (s *system) shutdown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.router != nil {
		keep(s.router.Shutdown(30 * time.Second))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		keep(srv.Shutdown(ctx))
	}
	return first
}

// counts tallies arrivals attempted and failed across a run.
type counts struct{ attempted, failed int64 }

// runWorkload is the untraced run. After an untimed warm-up, each of
// sp.reps repetitions starts a fresh system, creates the tenants (setup_s,
// which extraSetups samples more often), drives the closed loop
// (throughput_aps, cpu_ns_per_arrival, then heap_mb), drives the open loop
// for seconds (ack latency percentiles) and checks the final state against
// the oracle; every metric is the median over repetitions. The last
// system's state is then restored restoreReps times (restore_s).
func runWorkload(sp spec, seed int64, seconds int, dir string, cnt *counts) (*report, error) {
	rep := newReport()
	p, err := buildPlan(sp, seed, seconds, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	oracle, err := oracleSnapshots(seed, p.names, p.streams)
	if err != nil {
		return nil, err
	}
	if err := warmUp(sp, seed, dir, p, cnt); err != nil {
		return nil, err
	}
	setup, err := extraSetups(sp, seed, dir, p)
	if err != nil {
		return nil, err
	}
	var tput, cpu, heap []float64
	var pct [3][]float64
	var snaps []*engine.TenantSnapshot
	var sys *system
	defer func() {
		if sys != nil {
			sys.shutdown()
		}
	}()
	for i := 0; i < sp.reps; i++ {
		if sys != nil {
			if err := sys.shutdown(); err != nil {
				return nil, err
			}
			sys = nil
		}
		// Collect the previous repetition's system before timing this one.
		runtime.GC()
		t0 := time.Now()
		if sys, err = startSystem(sp, seed, filepath.Join(dir, fmt.Sprintf("sys%d", i))); err != nil {
			return nil, err
		}
		if err := createTenants(sys.tcp, p.creates); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())

		gc0 := gcCount()
		closed, err := closedPhase(sys, p, nil, cnt)
		if err != nil {
			return nil, err
		}
		tput = append(tput, closed.throughput)
		cpu = append(cpu, closed.cpuNsPerArrival)
		heap = append(heap, liveHeapMB())

		var reader *httpReader
		if sp.checkpoint {
			reader = startHTTPReader(sys.http, p.names)
		}
		gc1 := gcCount()
		lat, late, err := openPhase(sys, p, sp.openRate, cnt)
		gc2 := gcCount()
		if reader != nil {
			if rerr := reader.stop(); err == nil {
				err = rerr
			}
		}
		if err != nil {
			return nil, err
		}
		v, err := latencyPercentiles(lat)
		if err != nil {
			return nil, err
		}
		for k := range pct {
			pct[k] = append(pct[k], v[k])
		}
		rep.note("rep %d: setup %.3f s; closed loop %d arrivals in %.3f s, %.0f ns CPU each, %d GCs; open loop %d arrivals at %.0f/s, ack p50/p99/p99.9 %.1f/%.1f/%.1f us over n=%d (%d beyond p99.9), %d GCs; generator lateness %s%s",
			i, setup[len(setup)-1], closed.arrivals, closed.elapsed.Seconds(), closed.cpuNsPerArrival, gc1-gc0-1, len(lat), sp.openRate,
			v[0]/1e3, v[1]/1e3, v[2]/1e3, len(lat), len(lat)-(len(lat)*999+999)/1000, gc2-gc1, lateness(late), reader.summary())

		got, err := getBody(sys.http + "/v1/snapshots?compact=1")
		if err != nil {
			return nil, err
		}
		if snaps, err = checkSnapshots(fmt.Sprintf("%s rep %d", sp.name, i), got, oracle); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", "s", median(setup))
	rep.set("throughput_aps", "1/s", median(tput))
	rep.set("cpu_ns_per_arrival", "ns", median(cpu))
	rep.set("heap_mb", "MB", median(heap))
	for k, name := range []string{"ack_p50_us", "ack_p99_us", "ack_p999_us"} {
		rep.set(name, "us", median(pct[k])/1e3)
	}
	rep.set("failed_frac", "fraction", (float64(cnt.failed)+0.5)/(float64(cnt.attempted)+1))
	rep.set("cost_over_dual", "ratio", costOverDual(snaps))

	ckDir, err := prepareRestore(sp, dir, sys)
	sys = nil // prepareRestore shut it down
	if err != nil {
		return nil, err
	}
	restoreS, err := restore(sp, seed, ckDir, snaps)
	if err != nil {
		return nil, err
	}
	rep.set("restore_s", "s", restoreS)
	return rep, nil
}

// warmUp drives one closed loop on a fresh system before anything is timed,
// so that the process's first heap growth is not charged to the first
// repetition, and checks it against an oracle of the closed-loop prefixes.
func warmUp(sp spec, seed int64, dir string, p *plan, cnt *counts) error {
	prefixes := make([][]req, len(p.streams))
	for t, s := range p.streams {
		prefixes[t] = s[:sp.closed]
	}
	oracle, err := oracleSnapshots(seed, p.names, prefixes)
	if err != nil {
		return err
	}
	_, err = checkedClosedLoop(sp, seed, filepath.Join(dir, "warmup"), p, oracle, nil, cnt)
	return err
}

// checkedClosedLoop starts a fresh system in dir, creates the tenants,
// drives the closed loop alone (with spans set, recording them), shuts the
// system down and checks its final state against oracle.
func checkedClosedLoop(sp spec, seed int64, dir string, p *plan, oracle []byte, spans *spanLog, cnt *counts) (closedResult, error) {
	var res closedResult
	sys, err := startSystem(sp, seed, dir)
	if err != nil {
		return res, err
	}
	err = createTenants(sys.tcp, p.creates)
	if err == nil {
		res, err = closedPhase(sys, p, spans, cnt)
	}
	var got []byte
	if err == nil {
		got, err = getBody(sys.http + "/v1/snapshots?compact=1")
	}
	if serr := sys.shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return res, err
	}
	_, err = checkSnapshots(sp.name+" closed loop", got, oracle)
	return res, err
}

// setupSamples is how many times a run times setup: once per repetition,
// plus start-create-shutdown cycles before them to make up the count.
const setupSamples = 9

// extraSetups times the setup cycles that precede the repetitions.
func extraSetups(sp spec, seed int64, dir string, p *plan) ([]float64, error) {
	var times []float64
	for i := sp.reps; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := startSystem(sp, seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		err = createTenants(sys.tcp, p.creates)
		times = append(times, time.Since(t0).Seconds())
		if serr := sys.shutdown(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	return times, nil
}

type closedResult struct {
	arrivals        int
	elapsed         time.Duration
	throughput      float64
	cpuNsPerArrival float64
}

// closedPhase streams every connection's closed-loop frames at once, with
// the clock running from the first arrival sent to the last stream's
// result frame (which the server sends only once everything is served and
// acked).
func closedPhase(sys *system, p *plan, spans *spanLog, cnt *counts) (closedResult, error) {
	var res closedResult
	conns := make([]*wireConn, len(p.conns))
	for i, cp := range p.conns {
		c, err := cp.dial(sys.tcp, p.names, closedWindow, time.Now(), nil)
		if err != nil {
			closeAll(conns[:i])
			return res, err
		}
		conns[i] = c
		res.arrivals += cp.closedSent
	}
	cnt.attempted += int64(res.arrivals)
	root := spans.add("closed_loop", 0, spans.now(), 0, res.arrivals)
	cpu0 := cpuNs()
	t0 := time.Now()
	err := runConns(len(conns), func(i int) error {
		return driveClosed(conns[i], p.conns[i], closedWindow, spans, root)
	})
	res.elapsed = time.Since(t0)
	cpu := cpuNs() - cpu0
	spans.end(root)
	if err != nil {
		cnt.failed += int64(res.arrivals)
		return res, fmt.Errorf("closed loop: %v", err)
	}
	res.throughput = float64(res.arrivals) / res.elapsed.Seconds()
	res.cpuNsPerArrival = float64(cpu) / float64(res.arrivals)
	return res, nil
}

// closeAll abandons streams after a failed dial; their reader goroutines
// end with the connection.
func closeAll(conns []*wireConn) {
	for _, c := range conns {
		c.conn.Close()
	}
}

// openPhase drives every connection's open-loop schedule (the aggregate
// rate split evenly) and returns each arrival's latency from due time to
// its served ack — +Inf for an arrival refused or never acked — plus the
// generator's per-wake lateness.
func openPhase(sys *system, p *plan, rate float64, cnt *counts) (lat, late []float64, err error) {
	start := time.Now().Add(50 * time.Millisecond)
	conns := make([]*wireConn, len(p.conns))
	ackAt := make([][]int64, len(p.conns))
	for i, cp := range p.conns {
		ackAt[i] = make([]int64, len(cp.open))
		c, err := cp.dial(sys.tcp, p.names, server.MaxAckWindow, start, ackAt[i])
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			closeAll(conns[:i])
			return nil, nil, err
		}
		conns[i] = c
		cnt.attempted += int64(len(cp.open))
	}
	connRate := rate / float64(len(conns))
	lates := make([][]float64, len(conns))
	err = runConns(len(conns), func(i int) error {
		var derr error
		lates[i], derr = driveOpen(conns[i], p.conns[i], connRate)
		if derr != nil {
			return derr
		}
		_, derr = conns[i].finish(len(p.conns[i].open))
		return derr
	})
	interval := 1e9 / connRate
	for i, at := range ackAt {
		for j, a := range at {
			if a == 0 {
				cnt.failed++
				lat = append(lat, math.Inf(1))
				continue
			}
			lat = append(lat, float64(a)-float64(j)*interval)
		}
		late = append(late, lates[i]...)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("open loop: %v", err)
	}
	return lat, late, nil
}

// lateness summarizes how late the open-loop generator woke against the
// earliest arrival due at each wake.
func lateness(late []float64) string {
	if len(late) == 0 {
		return "n/a"
	}
	mx := 0.0
	for _, l := range late {
		mx = math.Max(mx, l)
	}
	return fmt.Sprintf("median %.1f us, max %.1f us over %d wakes", median(late)/1e3, mx/1e3, len(late))
}

// restoreSample is how many tenants (the first, by name) the restore of a
// non-checkpointing workload covers: their state is exported from the
// running server, so the capture is not part of the workload itself.
const restoreSample = 128

// prepareRestore shuts the system down and returns a checkpoint directory
// of its final state. A checkpointing server's own directory holds the
// checkpoint it writes on shutdown; otherwise the benchmark first exports
// restoreSample tenants from the (first) server into a checkpoint file.
func prepareRestore(sp spec, dir string, sys *system) (string, error) {
	ckDir := filepath.Join(dir, fmt.Sprintf("sys%d", sp.reps-1))
	if !sp.checkpoint {
		ckDir = filepath.Join(dir, "restore")
		var names []string
		for t := 0; t < min(restoreSample, sp.tenants); t++ {
			names = append(names, tenantName(t))
		}
		if err := exportCheckpoint(sys.servers[0].Engine(), names, filepath.Join(ckDir, server.CheckpointFile)); err != nil {
			sys.shutdown()
			return "", err
		}
	}
	return ckDir, sys.shutdown()
}

// restoreReps is how many times a run restores the same checkpoint
// directory; restore_s is the median.
const restoreReps = 3

// restore times server.New — checkpoint load, tail replay and drain — on
// ckDir restoreReps times, checks every restored server's tenants against
// want (the gate-checked snapshots of the same tenants) and returns the
// median time.
func restore(sp spec, seed int64, ckDir string, want []*engine.TenantSnapshot) (float64, error) {
	cfg := serverConfig(sp, seed, ckDir)
	cfg.CheckpointDir = ckDir
	n := min(len(want), restoreSampleFor(sp))
	wantJSON, err := encodeSnapshots(want[:n])
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < restoreReps; i++ {
		runtime.GC()
		t0 := time.Now()
		srv, err := server.New(cfg)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		snaps, err := srv.Engine().SnapshotAllCompact()
		srv.Engine().Close()
		if err != nil {
			return 0, err
		}
		if len(snaps) != n {
			return 0, fmt.Errorf("restore: %d tenants restored, want %d", len(snaps), n)
		}
		got, err := encodeSnapshots(snaps)
		if err != nil {
			return 0, err
		}
		if _, err := checkSnapshots(sp.name+" restored", got, wantJSON); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

func restoreSampleFor(sp spec) int {
	if sp.checkpoint {
		return sp.tenants
	}
	return restoreSample
}

// exportCheckpoint writes a checkpoint of the named tenants, exported from
// eng, to path.
func exportCheckpoint(eng *engine.Engine, names []string, path string) error {
	ck := &engine.Checkpoint{Version: engine.CheckpointVersion}
	for _, name := range names {
		tr, err := eng.ExportTenant(name)
		if err != nil {
			return err
		}
		ck.Algorithm, ck.Seed = tr.Algorithm, tr.Seed
		ck.Tenants = append(ck.Tenants, tr.TenantCheckpoint)
	}
	_, err := ck.WriteFile(path)
	return err
}

// httpReader sends POST /v1/checkpoint and a compact snapshot GET about
// once a second, beside the open loop's writes.
type httpReader struct {
	quit         chan struct{}
	done         chan struct{}
	err          error
	checkpointMs []float64
	snapshotMs   []float64
}

func startHTTPReader(base string, tenants []string) *httpReader {
	r := &httpReader{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-r.quit:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if err := postEmpty(base + "/v1/checkpoint"); err != nil {
				r.err = err
				return
			}
			r.checkpointMs = append(r.checkpointMs, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := getBody(base + "/v1/tenants/" + tenants[i%len(tenants)] + "/snapshot?compact=1"); err != nil {
				r.err = err
				return
			}
			r.snapshotMs = append(r.snapshotMs, ms(time.Since(t0)))
		}
	}()
	return r
}

// summary describes the reader's calls ("" for a nil reader).
func (r *httpReader) summary() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("; http reader: %d checkpoints (median %.1f ms), %d compact snapshots (median %.1f ms)",
		len(r.checkpointMs), medianOr0(r.checkpointMs), len(r.snapshotMs), medianOr0(r.snapshotMs))
}

func (r *httpReader) stop() error {
	close(r.quit)
	<-r.done
	return r.err
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get("http://" + url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

func postEmpty(url string) error {
	resp, err := http.Post("http://"+url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, body)
	}
	return nil
}

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// gcCount returns how many collections the process has completed.
func gcCount() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// removeAll deletes a run's scratch directory.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
