package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
)

// smallOracle serves three short tenant streams through the oracle.
func smallOracle(t *testing.T) ([]byte, []*engine.TenantSnapshot) {
	t.Helper()
	names := []string{tenantName(0), tenantName(1), tenantName(2)}
	streams := make([][]req, len(names))
	for i := range streams {
		streams[i] = genStream(7, i, 300)
	}
	data, err := oracleSnapshots(7, names, streams)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*engine.TenantSnapshot
	if err := json.Unmarshal(data, &snaps); err != nil {
		t.Fatal(err)
	}
	return data, snaps
}

func TestGateAcceptsOracleRun(t *testing.T) {
	oracle, _ := smallOracle(t)
	again, _ := smallOracle(t)
	snaps, err := checkSnapshots("rerun", again, oracle)
	if err != nil {
		t.Fatalf("identical run rejected: %v", err)
	}
	if r := costOverDual(snaps); !(r >= 1 && r <= 3) {
		t.Fatalf("cost/dual = %v, want within [1, 3]", r)
	}
}

func TestGateRejectsMismatchedSnapshot(t *testing.T) {
	oracle, snaps := smallOracle(t)
	snaps[1].Facilities[0].Point = (snaps[1].Facilities[0].Point + 1) % points
	bad, err := encodeSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bad, oracle) {
		t.Fatal("mutation did not change the snapshot")
	}
	if _, err := checkSnapshots("mutated", bad, oracle); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Fatalf("mismatched snapshot accepted: %v", err)
	}
}

func TestGateRejectsCorollary8Violation(t *testing.T) {
	_, snaps := smallOracle(t)
	snaps[2].Cost = 3*snaps[2].DualTotal + 1
	bad, err := encodeSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical to its own oracle, so only Corollary 8 can reject it.
	if _, err := checkSnapshots("over bound", bad, bad); err == nil || !strings.Contains(err.Error(), "Corollary 8") {
		t.Fatalf("tenant with cost > 3·DualTotal accepted: %v", err)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	rep := newReport()
	if err := rep.latencies("x_", samples(10000)); err != nil {
		t.Fatalf("10000 samples: %v", err)
	}
	if got := rep.metrics["x_p999_us"].Value; got != 9990.0/1e3 {
		t.Fatalf("p99.9 of 1..10000 ns = %v us, want 9.99", got)
	}
	if err := newReport().latencies("x_", samples(9999)); err == nil {
		t.Fatal("p99.9 over 9999 samples reported with fewer than 10 beyond it")
	}
}
