//go:build invariants

package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// serveRandom drives pd through n random arrivals; under -tags invariants
// every Serve re-derives the credit and bid invariants and panics on
// violation, so a clean return is the assertion.
func serveRandom(pd *PDOMFLP, rng *rand.Rand, space metric.Space, u, n int) {
	for i := 0; i < n; i++ {
		pd.Serve(instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
}

// TestInvariantsHoldOnRandomWorkloads runs both serve paths under the
// assertion layer.
func TestInvariantsHoldOnRandomWorkloads(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		u := 2 + rng.Intn(3)
		space := metric.RandomLine(rng, 5, 12)
		costs := cost.PowerLaw(u, 1, 1.5)
		serveRandom(NewPDOMFLP(space, costs, Options{}), rng, space, u, 40)
		serveRandom(NewPDLoopReference(space, costs, Options{}), rng, space, u, 40)
	}
}

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("expected panic containing %q, got %v", want, r)
		}
	}()
	f()
}

// TestCreditInvariantViolationPanics corrupts a recorded credit so it
// exceeds the distance to the nearest open facility and checks that the next
// arrival trips the credit assertion.
func TestCreditInvariantViolationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := 2
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	if len(pd.creditLarge) == 0 {
		t.Fatal("workload recorded no large credits")
	}
	pd.creditLarge[0].credit += 1e6
	mustPanic(t, "invariant violation: large credit", func() {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	})
}

// TestBidConsistencyViolationPanics corrupts an incremental bid accumulator
// and checks that the next arrival trips the differential assertion. The
// threshold cache is invalidated first so its (earlier) oracle check sees a
// self-consistent — if corrupt — row and defers to the bid assertion.
func TestBidConsistencyViolationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := 2
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	pd.bidLarge[0] += 0.5
	pd.thr.large.invalidate()
	mustPanic(t, "invariant violation: large bid row", func() {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	})
}

// TestThresholdCacheDivergencePanics corrupts a bid accumulator without
// telling the threshold cache and checks that the cache's oracle
// cross-check — which fires before the bid assertion — catches the stale
// cached minima on the next arrival.
func TestThresholdCacheDivergencePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := 2
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	pd.bidLarge[0] += 0.5
	mustPanic(t, "threshold cache diverged", func() {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	})
}

// TestDeadCreditViolationPanics zeroes a recorded credit — which pruning
// never leaves in a ledger — and checks that the assertion layer refuses it.
// It also lists a commodity in liveSmall twice, which the same check trips.
func TestDeadCreditViolationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := 2
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	if len(pd.creditLarge) == 0 || len(pd.liveSmall) == 0 {
		t.Fatal("workload left no live credits")
	}
	saved := pd.creditLarge[0].credit
	pd.creditLarge[0].credit = 0
	mustPanic(t, "invariant violation: dead large credit", pd.assertInvariants)
	pd.creditLarge[0].credit = saved

	pd.liveSmall = append(pd.liveSmall, pd.liveSmall[0])
	mustPanic(t, "invariant violation: liveSmall lists", pd.assertInvariants)
}

// TestRowCacheViolationPanics flips one byte of the cached row encoding
// after a marshal filled it and checks that the fresh-encode comparison
// catches it on the next arrival.
func TestRowCacheViolationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := 3
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	if _, err := pd.MarshalState(); err != nil {
		t.Fatal(err)
	}
	pd.rowEnc[len(pd.rowEnc)/2] ^= 0x40
	mustPanic(t, "invariant violation: row cache", func() {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	})
}
