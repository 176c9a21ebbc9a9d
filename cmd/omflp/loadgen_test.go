package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// captureStdout redirects os.Stdout around fn (loadgen writes its report
// there) and returns what was written.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	ferr := <-errc
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatalf("loadgen: %v\noutput: %s", ferr, out)
	}
	return out
}

// TestLoadgenSpawnedServer runs loadgen end-to-end against a server it
// spawns itself, in both transport modes, and checks the report and the
// BENCH_serve.json artifact.
func TestLoadgenSpawnedServer(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []string{"tcp", "http"} {
		out := captureStdout(t, func() error {
			return run([]string{"loadgen", "-mode", mode, "-arrivals", "400",
				"-tenants", "3", "-conc", "2", "-points", "8", "-universe", "4",
				"-seed", "3", "-bench-out", dir, "-quiet"})
		})
		var rep struct {
			Mode           string  `json:"mode"`
			Arrivals       int     `json:"arrivals"`
			ArrivalsPerSec float64 `json:"arrivals_per_sec"`
			RequestP99     float64 `json:"request_p99_ms"`
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("%s: report not JSON: %v\n%s", mode, err, out)
		}
		if rep.Mode != mode || rep.Arrivals != 400 || rep.ArrivalsPerSec <= 0 {
			t.Errorf("%s report = %+v", mode, rep)
		}
		if mode == "http" && rep.RequestP99 <= 0 {
			t.Errorf("http mode reported no request latency: %+v", rep)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Modes map[string]json.RawMessage `json:"modes"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Modes) != 2 {
		t.Errorf("BENCH_serve.json has modes %v, want tcp and http", bench.Modes)
	}
}

// TestLoadgenTraceReproducesGolden is the network acceptance contract at the
// CLI level: driving a daemon with the smoke trace over HTTP and over TCP
// must yield the exact snapshot artifact the stdin path produces (the
// committed golden file).
func TestLoadgenTraceReproducesGolden(t *testing.T) {
	want, err := os.ReadFile(smokeGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"http", "tcp"} {
		srv, err := server.New(server.Config{
			HTTPAddr: "127.0.0.1:0",
			TCPAddr:  "127.0.0.1:0",
			Engine:   engine.Config{Algorithm: "pd", Shards: 4, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		addr := srv.HTTPAddr()
		if mode == "tcp" {
			addr = srv.TCPAddr()
		}
		captureStdout(t, func() error {
			return run([]string{"loadgen", "-mode", mode, "-addr", addr,
				"-http-addr", srv.HTTPAddr(), "-trace", smokeTrace,
				"-tenants", "3", "-conc", "2", "-quiet"})
		})
		resp, err := http.Get("http://" + srv.HTTPAddr() + "/v1/snapshots")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: snapshots from the network path differ from %s", mode, smokeGolden)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
}

func TestLoadgenErrors(t *testing.T) {
	if err := run([]string{"loadgen", "-mode", "carrier-pigeon"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"loadgen", "-trace", "/does/not/exist.json"}); err == nil {
		t.Error("missing trace accepted")
	}
	// The binary-wire knobs are tcp-only; over HTTP they must fail loudly.
	if err := run([]string{"loadgen", "-mode", "http", "-window", "16", "-arrivals", "1"}); err == nil {
		t.Error("-window accepted in http mode")
	}
	if err := run([]string{"loadgen", "-mode", "http", "-wire-batch", "8", "-arrivals", "1"}); err == nil {
		t.Error("-wire-batch accepted in http mode")
	}
}

// TestLoadgenDistAndRate: the zipf/bundled workload mixes and the open-loop
// -rate schedule drive a spawned server end to end; the report must carry
// the mix and offered rate, and a paced run must not beat its own schedule.
func TestLoadgenDistAndRate(t *testing.T) {
	for _, tc := range []struct {
		dist string
		mode string
		rate string
	}{
		{dist: "zipf", mode: "tcp", rate: "0"},
		{dist: "bundled", mode: "http", rate: "0"},
		{dist: "uniform", mode: "tcp", rate: "2000"},
		{dist: "zipf", mode: "http", rate: "2000"},
	} {
		out := captureStdout(t, func() error {
			return run([]string{"loadgen", "-mode", tc.mode, "-dist", tc.dist,
				"-arrivals", "300", "-tenants", "2", "-conc", "2", "-points", "8",
				"-universe", "4", "-seed", "5", "-rate", tc.rate, "-quiet"})
		})
		var rep struct {
			Dist           string  `json:"dist"`
			Arrivals       int     `json:"arrivals"`
			OfferedRate    float64 `json:"offered_rate_per_sec"`
			ArrivalsPerSec float64 `json:"arrivals_per_sec"`
			Elapsed        float64 `json:"elapsed_seconds"`
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("%s/%s: report not JSON: %v\n%s", tc.dist, tc.mode, err, out)
		}
		if rep.Dist != tc.dist || rep.Arrivals != 300 || rep.ArrivalsPerSec <= 0 {
			t.Errorf("%s/%s: report %+v", tc.dist, tc.mode, rep)
		}
		if tc.rate != "0" {
			// 300 arrivals at 2000/s is a 150ms schedule; a paced run
			// cannot finish meaningfully faster than its schedule.
			if rep.OfferedRate != 2000 {
				t.Errorf("%s/%s: offered rate %g, want 2000", tc.dist, tc.mode, rep.OfferedRate)
			}
			if rep.Elapsed < 0.10 {
				t.Errorf("%s/%s: open-loop run finished in %.0fms, faster than its own 150ms schedule",
					tc.dist, tc.mode, rep.Elapsed*1e3)
			}
		}
	}
}

// TestLoadgenBadDist: unknown mixes and negative rates must be rejected.
func TestLoadgenBadDist(t *testing.T) {
	if err := run([]string{"loadgen", "-dist", "nope", "-arrivals", "1"}); err == nil {
		t.Error("unknown -dist accepted")
	}
	if err := run([]string{"loadgen", "-rate", "-1", "-arrivals", "1"}); err == nil {
		t.Error("negative -rate accepted")
	}
	if err := run([]string{"loadgen", "-dist", "zipf", "-zipf-s", "0.5", "-arrivals", "1"}); err == nil {
		t.Error("-zipf-s <= 1 accepted")
	}
}
