package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestFrameTraceRoundTrip: traced frames carry their id; untraced frames are
// byte-identical to the pre-trace protocol and both readers accept both
// forms.
func TestFrameTraceRoundTrip(t *testing.T) {
	payload := []byte(`{"op":"arrive","tenant":"a","point":1,"demands":[0]}`)

	var traced, legacy bytes.Buffer
	if err := WriteFrameTrace(&traced, payload, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&legacy, payload); err != nil {
		t.Fatal(err)
	}
	if traced.Len() != legacy.Len()+8 {
		t.Errorf("traced frame is %d bytes, want legacy %d + 8-byte id", traced.Len(), legacy.Len())
	}

	// Untraced via WriteFrameTrace(.., 0) must equal WriteFrame output.
	var zero bytes.Buffer
	if err := WriteFrameTrace(&zero, payload, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero.Bytes(), legacy.Bytes()) {
		t.Error("WriteFrameTrace with id 0 is not byte-identical to WriteFrame")
	}

	got, id, err := ReadFrameTrace(bytes.NewReader(traced.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xdeadbeefcafe || !bytes.Equal(got, payload) {
		t.Errorf("ReadFrameTrace = (%q, %#x), want (%q, 0xdeadbeefcafe)", got, id, payload)
	}

	// Legacy reader discards the id but decodes the payload.
	got, err = ReadFrame(bytes.NewReader(traced.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("ReadFrame(traced) = %q, want %q", got, payload)
	}

	// Traced reader on a legacy frame reports id 0.
	got, id, err = ReadFrameTrace(bytes.NewReader(legacy.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || !bytes.Equal(got, payload) {
		t.Errorf("ReadFrameTrace(legacy) = (%q, %#x), want (%q, 0)", got, id, payload)
	}

	// A traced frame truncated inside the id must fail loudly, not EOF.
	_, _, err = ReadFrameTrace(bytes.NewReader(traced.Bytes()[:8]), nil)
	if err == nil || err == io.EOF {
		t.Errorf("truncated trace id: err = %v, want frame error", err)
	}
}

// obsServer starts a server with tracing on full blast, creates tenants, and
// pushes the trace's arrivals over TCP.
func obsServer(t *testing.T, tenants, n int, extra func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		HTTPAddr: "127.0.0.1:0",
		TCPAddr:  "127.0.0.1:0",
		Engine: engine.Config{
			Algorithm: "pd", Shards: 2, Seed: 7,
			TraceSample: 1, FlightRecords: 256,
		},
	}
	if extra != nil {
		extra(&cfg)
	}
	s := startServer(t, cfg)
	ops := traceOps(t, testTrace(7, n, 6, 24), tenants)
	streamOps(t, s.TCPAddr(), ops, true)
	return s
}

// TestServerStageBreakdownTCPAndHTTP: arrivals over both transports land in
// the same stage histograms, and /v1/metrics exposes the breakdown.
func TestServerStageBreakdownTCPAndHTTP(t *testing.T) {
	const tenants, n = 3, 40
	s := obsServer(t, tenants, n, nil)
	base := "http://" + s.HTTPAddr()

	// A few more arrivals over HTTP, single and batch form.
	httpJSON(t, "POST", base+"/v1/tenants/tenant-000/arrive",
		Arrival{Point: 1, Demands: []int{0}}, http.StatusOK)
	httpJSON(t, "POST", base+"/v1/tenants/tenant-001/arrive",
		map[string]interface{}{"arrivals": []Arrival{
			{Point: 2, Demands: []int{1}}, {Point: 3, Demands: []int{0, 1}},
		}}, http.StatusOK)
	wantServed := n + 3

	awaitServed(t, s, wantServed)
	var m Metrics
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	if m.Stages == nil {
		t.Fatal("metrics carry no stage breakdown with tracing on")
	}
	if m.Stages.Sampled != int64(wantServed) {
		t.Errorf("Sampled = %d, want %d (sample=1 traces every arrival)", m.Stages.Sampled, wantServed)
	}
	m.Stages.Each(func(stage string, h obs.HistSummary) {
		if h.Count != int64(wantServed) {
			t.Errorf("stage %s: count %d, want %d", stage, h.Count, wantServed)
		}
	})
	if m.Runtime.Goroutines <= 0 || m.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime stats not populated: %+v", m.Runtime)
	}
	if m.LatencyP999Micros < m.LatencyP50Micros {
		t.Errorf("p999 %v < p50 %v", m.LatencyP999Micros, m.LatencyP50Micros)
	}
}

// awaitServed waits for the engine's served count to reach want — the ack
// stage of the final arrival may still be publishing when the TCP result
// frame arrives.
func awaitServed(t *testing.T, s *Server, want int) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if s.Engine().Metrics().Served >= int64(want) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("served %d arrivals, want %d", s.Engine().Metrics().Served, want)
}

// TestHTTPTraceHeaderForcesRecord: a wire trace id forces a flight record
// under that exact id even on a server that samples nothing locally.
func TestHTTPTraceHeaderForcesRecord(t *testing.T) {
	s := obsServer(t, 1, 4, func(c *Config) {
		c.Engine.TraceSample = 1 << 30 // effectively never sample locally
	})
	base := "http://" + s.HTTPAddr()

	body, _ := json.Marshal(Arrival{Point: 5, Demands: []int{0}})
	req, err := http.NewRequest("POST", base+"/v1/tenants/tenant-000/arrive", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	const wireID = uint64(0xabcdef0123456789)
	req.Header.Set(TraceHeader, obs.TraceIDString(wireID))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arrive with trace header: status %d", resp.StatusCode)
	}

	awaitServed(t, s, 5)
	var doc FlightDumpDoc
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/debug/flight", nil, http.StatusOK), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Tracing {
		t.Error("flight dump reports tracing off on a traced server")
	}
	want := obs.TraceIDString(wireID)
	found := false
	for _, r := range doc.Records {
		if r.TraceID == want {
			found = true
			if r.Tenant != "tenant-000" || r.Outcome != "ok" {
				t.Errorf("forced record = %+v, want tenant-000/ok", r)
			}
		}
	}
	if !found {
		t.Errorf("no flight record under wire id %s in %d records", want, len(doc.Records))
	}
}

// TestTCPWireTraceID: a traced TCP frame (router upstream) records under the
// wire id.
func TestTCPWireTraceID(t *testing.T) {
	s := obsServer(t, 1, 4, func(c *Config) {
		c.Engine.TraceSample = 1 << 30
	})
	conn, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const wireID = uint64(0x1122334455667788)
	bw := bufio.NewWriter(conn)
	if err := WriteFrame(bw, AppendWireBind(nil, 0, "tenant-000")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameTrace(bw, AppendWireArrive(nil, 0, 2, []int{1}), wireID); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bufio.NewReader(conn), nil); err != nil {
		t.Fatal(err)
	}

	awaitServed(t, s, 5)
	recs := s.Engine().FlightDump("", 0)
	want := obs.TraceIDString(wireID)
	found := false
	for _, r := range recs {
		if r.TraceID == want && r.Tenant == "tenant-000" {
			found = true
		}
	}
	if !found {
		t.Errorf("no flight record under TCP wire id %s in %d records", want, len(recs))
	}
}

// TestPromEndpoint: GET /metrics serves valid-shaped text exposition with
// the engine, stage, and runtime series.
func TestPromEndpoint(t *testing.T) {
	const tenants, n = 2, 30
	s := obsServer(t, tenants, n, nil)
	awaitServed(t, s, n)

	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		"omflp_tenants " + fmt.Sprint(tenants),
		"omflp_served_total " + fmt.Sprint(n),
		`omflp_shard_served_total{shard="0"}`,
		`omflp_shard_served_total{shard="1"}`,
		"omflp_serve_latency_seconds_count " + fmt.Sprint(n),
		"omflp_trace_sampled_total " + fmt.Sprint(n),
		`omflp_stage_latency_seconds_bucket{stage="decode",le=`,
		`omflp_stage_latency_seconds_bucket{stage="total",le="+Inf"} ` + fmt.Sprint(n),
		"omflp_goroutines ",
		"omflp_gc_cycles_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	// Exposition shape: every sample line's metric has a preceding # TYPE,
	// emitted exactly once per name.
	typeCount := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			typeCount[fields[2]]++
		}
	}
	for name, c := range typeCount {
		if c != 1 {
			t.Errorf("metric %s has %d TYPE lines, want 1", name, c)
		}
	}
	if typeCount["omflp_stage_latency_seconds"] != 1 {
		t.Error("stage histogram family missing its TYPE header")
	}
}

// TestFlightEndpointFilters: ?tenant= and ?max= narrow the dump; bad ?max=
// is a client error.
func TestFlightEndpointFilters(t *testing.T) {
	const tenants, n = 3, 30
	s := obsServer(t, tenants, n, nil)
	awaitServed(t, s, n)
	base := "http://" + s.HTTPAddr()

	var doc FlightDumpDoc
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/debug/flight", nil, http.StatusOK), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Records) != n {
		t.Errorf("full dump has %d records, want %d", len(doc.Records), n)
	}
	for i := 1; i < len(doc.Records); i++ {
		if doc.Records[i].WallUnixNano < doc.Records[i-1].WallUnixNano {
			t.Fatal("dump is not oldest-first")
		}
	}

	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/debug/flight?tenant=tenant-001&max=4", nil, http.StatusOK), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Records) != 4 {
		t.Errorf("filtered dump has %d records, want 4", len(doc.Records))
	}
	for _, r := range doc.Records {
		if r.Tenant != "tenant-001" {
			t.Errorf("tenant filter leaked record for %q", r.Tenant)
		}
	}

	httpJSON(t, "GET", base+"/v1/debug/flight?max=potato", nil, http.StatusBadRequest)
}

// TestFlightEndpointTracingOff: without -trace-sample the endpoint still
// answers — empty records, tracing=false.
func TestFlightEndpointTracingOff(t *testing.T) {
	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: engine.Config{Shards: 1}})
	var doc FlightDumpDoc
	if err := json.Unmarshal(httpJSON(t, "GET", "http://"+s.HTTPAddr()+"/v1/debug/flight", nil, http.StatusOK), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Tracing || doc.Records == nil || len(doc.Records) != 0 {
		t.Errorf("dump = %+v, want tracing=false with empty non-nil records", doc)
	}
}

// TestPprofGating: /debug/pprof/ exists only when EnablePprof is set.
func TestPprofGating(t *testing.T) {
	off := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: engine.Config{Shards: 1}})
	resp, err := http.Get("http://" + off.HTTPAddr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := startServer(t, Config{HTTPAddr: "127.0.0.1:0", EnablePprof: true, Engine: engine.Config{Shards: 1}})
	resp, err = http.Get("http://" + on.HTTPAddr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof on: status %d, want 200 with profile index", resp.StatusCode)
	}
}

// TestTracedSnapshotsMatchUntraced: the network path with tracing on full
// blast produces byte-identical snapshots to the bare stdin replay without
// tracing — observability must not perturb the algorithm.
func TestTracedSnapshotsMatchUntraced(t *testing.T) {
	const tenants = 3
	ops := traceOps(t, testTrace(11, 36, 6, 24), tenants)
	want := stdinSnapshots(t, engine.Config{Algorithm: "pd", Shards: 4, Seed: 5}, ops)

	s := startServer(t, Config{
		HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0",
		Engine: engine.Config{Algorithm: "pd", Shards: 4, Seed: 5, TraceSample: 1},
	})
	streamOps(t, s.TCPAddr(), ops, true)
	got := httpJSON(t, "GET", "http://"+s.HTTPAddr()+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("traced network snapshots differ from untraced stdin snapshots")
	}
}
