package core

import (
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// dualTotalScan is the full rescan DualTotal's running sum replaces.
func dualTotalScan(pd *PDOMFLP) float64 {
	var sum float64
	for _, row := range pd.duals {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// TestDualTotalMatchesScan: the O(1) running dual total is bit-equal to the
// full rescan after every arrival, on all three serve paths and after a
// restore.
func TestDualTotalMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rig := newStateRig(seed, 200)
		pds := []*PDOMFLP{
			NewPDOMFLP(rig.space, rig.costs, Options{}),
			NewPDLoopReference(rig.space, rig.costs, Options{}),
			NewPDReference(rig.space, rig.costs, Options{}),
		}
		for i, r := range rig.requests {
			for _, pd := range pds {
				pd.Serve(r)
				if got, want := pd.DualTotal(), dualTotalScan(pd); got != want { //omflp:floatexact — the running sum must be bit-identical to the rescan
					t.Fatalf("seed %d arrival %d: DualTotal %v, rescan %v", seed, i, got, want)
				}
			}
			if i == 120 {
				blob, err := pds[0].MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				back := NewPDOMFLP(rig.space, rig.costs, Options{})
				if err := back.UnmarshalState(blob); err != nil {
					t.Fatal(err)
				}
				if got, want := back.DualTotal(), dualTotalScan(back); got != want { //omflp:floatexact — rebuilt sum must be bit-identical to the rescan
					t.Fatalf("seed %d: restored DualTotal %v, rescan %v", seed, got, want)
				}
				pds = append(pds, back)
			}
		}
	}
}

// codecRig is a workload long enough to cross several 4096-arrival seal
// blocks, on a small space so the reference loops stay quick.
func codecRig(seed int64, u, n int) *stateTestRig {
	rng := rand.New(rand.NewSource(seed))
	space := metric.RandomEuclidean(rng, 10, 2, 60)
	rig := &stateTestRig{space: space, costs: cost.PowerLaw(u, 1, 1.5), u: u}
	for i := 0; i < n; i++ {
		rig.requests = append(rig.requests, instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
	return rig
}

// TestPDStateInterleavedMarshalsMatchFresh: a state marshaled after earlier
// marshals (so most rows come from the row cache) is byte-equal to a
// from-scratch marshal of an identically driven instance that never
// marshaled — at every 4096-arrival seal boundary and at irregular points
// between them, for incremental and naive-reference instances and |S|=1.
func TestPDStateInterleavedMarshalsMatchFresh(t *testing.T) {
	cases := []struct {
		name string
		u    int
		mk   func(*stateTestRig) *PDOMFLP
	}{
		{"incremental", 4, func(r *stateTestRig) *PDOMFLP { return NewPDOMFLP(r.space, r.costs, Options{}) }},
		{"naive-reference", 4, func(r *stateTestRig) *PDOMFLP { return NewPDReference(r.space, r.costs, Options{}) }},
		{"singleton-universe", 1, func(r *stateTestRig) *PDOMFLP { return NewPDOMFLP(r.space, r.costs, Options{}) }},
	}
	cuts := []int{1, 17, 4096, 4097, 5000, 8192, 8192, 9000}
	for _, tc := range cases {
		rig := codecRig(21, tc.u, cuts[len(cuts)-1])
		sealed, fresh := tc.mk(rig), tc.mk(rig)
		served := 0
		for _, cut := range cuts {
			for ; served < cut; served++ {
				sealed.Serve(rig.requests[served])
				fresh.Serve(rig.requests[served])
			}
			got, err := sealed.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			// A never-marshaled clone served the same prefix encodes every
			// row from scratch.
			scratch := tc.mk(rig)
			for _, r := range rig.requests[:served] {
				scratch.Serve(r)
			}
			want, err := scratch.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s at %d arrivals: interleaved marshal (%d B) differs from a from-scratch one (%d B)",
					tc.name, served, len(got), len(want))
			}
		}
		last, err := fresh.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := sealed.MarshalState(); string(got) != string(last) {
			t.Fatalf("%s: final states differ", tc.name)
		}
	}
}

// TestPDMarshalEncodesEachRowOnce proves the O(change) property of a seal:
// before each marshal every cached row byte is poisoned, and the marshal
// must copy the poison through (a re-encode would write the true bytes
// back) while appending exactly the rows served since the last marshal,
// each encoded once.
func TestPDMarshalEncodesEachRowOnce(t *testing.T) {
	rig := newStateRig(11, 300)
	pd := NewPDOMFLP(rig.space, rig.costs, Options{})
	served := 0
	for _, cut := range []int{0, 1, 50, 51, 51, 200, 300} {
		for ; served < cut; served++ {
			pd.Serve(rig.requests[served])
		}
		old, oldN := len(pd.rowEnc), pd.rowEncN
		for i := range pd.rowEnc {
			pd.rowEnc[i] ^= 0xFF
		}
		poisoned := string(pd.rowEnc)
		blob, err := pd.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if pd.rowEncN != served {
			t.Fatalf("cut %d: %d rows cached, want %d", cut, pd.rowEncN, served)
		}
		if string(pd.rowEnc[:old]) != poisoned || !strings.Contains(string(blob), poisoned) {
			t.Fatalf("cut %d: cached rows were re-encoded instead of copied", cut)
		}
		var added []byte
		for i := oldN; i < served; i++ {
			added = pd.appendRow(added, i)
		}
		if string(pd.rowEnc[old:]) != string(added) {
			t.Fatalf("cut %d: the cache grew by %d bytes, the %d new rows encode to %d",
				cut, len(pd.rowEnc)-old, served-oldN, len(added))
		}
		for i := range pd.rowEnc[:old] {
			pd.rowEnc[i] ^= 0xFF
		}
	}
}

// validPDStates returns states of the rig's instances at several points:
// empty, incremental, naive-reference (no bid rows) and without prediction.
func validPDStates(t testing.TB, rig *stateTestRig) [][]byte {
	var out [][]byte
	for _, mk := range []func() *PDOMFLP{
		func() *PDOMFLP { return NewPDOMFLP(rig.space, rig.costs, Options{}) },
		func() *PDOMFLP { return NewPDReference(rig.space, rig.costs, Options{}) },
		func() *PDOMFLP { return NewPDOMFLP(rig.space, rig.costs, Options{DisablePrediction: true}) },
	} {
		pd := mk()
		for _, cut := range []int{0, 7, len(rig.requests)} {
			for _, r := range rig.requests[len(pd.points):cut] {
				pd.Serve(r)
			}
			blob, err := pd.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, blob)
		}
	}
	return out
}

// TestPDStateEveryPrefixFails: every proper prefix of a valid state is
// refused with an error — never a panic, never a partial restore. One
// receiver takes every refused prefix and must still restore the full
// state afterwards.
func TestPDStateEveryPrefixFails(t *testing.T) {
	rig := newStateRig(3, 40)
	for si, blob := range validPDStates(t, rig) {
		pd := NewPDOMFLP(rig.space, rig.costs, Options{})
		for i := 0; i < len(blob); i++ {
			if err := pd.UnmarshalState(blob[:i]); err == nil {
				t.Fatalf("state %d: the %d-byte prefix of a %d-byte state restored", si, i, len(blob))
			}
		}
		if err := pd.UnmarshalState(blob); err != nil {
			t.Fatalf("state %d: full state refused after the prefixes: %v", si, err)
		}
	}
}

// TestPDStateRefusesCorruptCounts: a count larger than the bytes left is
// refused before anything is allocated for it.
func TestPDStateRefusesCorruptCounts(t *testing.T) {
	rig := newStateRig(3, 40)
	pd := NewPDOMFLP(rig.space, rig.costs, Options{})
	if len(pd.ct.cands) >= 0x80 {
		t.Fatal("the hand-built header below needs a one-byte candidate count")
	}
	huge := []byte{pdStateMagic, pdStateSchema, byte(rig.u), byte(len(pd.ct.cands)), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	err := pd.UnmarshalState(huge)
	if err == nil || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("a 4e9-row count was not refused by size: %v", err)
	}
}

// TestPDStateRejectsJSONSchema1: a state in the retired JSON layout fails
// with a schema error.
func TestPDStateRejectsJSONSchema1(t *testing.T) {
	rig := newStateRig(2, 10)
	pd := NewPDOMFLP(rig.space, rig.costs, Options{})
	old := `{"schema":1,"universe":3,"candidates":10,"points":[0],"demand_ids":[[1]],"duals":[[0.5]],` +
		`"fac_boundary":[1],"credit_small":[[],[],[]],"credit_large":[],"facilities":[{"p":0,"e":1}],"assign":[[0]]}`
	err := pd.UnmarshalState([]byte(old))
	if err == nil || !strings.Contains(err.Error(), "schema 1") {
		t.Fatalf("JSON schema-1 state: got %v, want a schema error", err)
	}
	if err := pd.UnmarshalState([]byte("{")); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("truncated JSON: got %v, want a schema error", err)
	}
}

// TestHeavyAwareStateCarriesBinaryInner: the heavy-aware JSON state carries
// the inner PD state as base64 binary, and the whole state round-trips to
// identical bytes.
func TestHeavyAwareStateCarriesBinaryInner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := 5
	space := metric.RandomEuclidean(rng, 12, 2, 60)
	costs := mustTable(t, u)
	ha := NewHeavyAware(space, costs, Options{}, 1.5)
	for i := 0; i < 40; i++ {
		ha.Serve(instance.Request{Point: rng.Intn(space.Len()), Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u))})
	}
	blob, err := ha.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Inner string `json:"inner"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	inner, err := base64.StdEncoding.DecodeString(doc.Inner)
	if err != nil || len(inner) == 0 || inner[0] != pdStateMagic {
		t.Fatalf("inner state is not base64 PD binary (err %v)", err)
	}
	back := NewHeavyAware(space, costs, Options{}, 1.5)
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	again, err := back.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Fatal("heavy-aware state changed across a round trip")
	}
}

// FuzzPDUnmarshalState: arbitrary bytes never panic the decoder, and any
// state it accepts re-marshals to a canonical form that restores to itself.
func FuzzPDUnmarshalState(f *testing.F) {
	rig := newStateRig(3, 40)
	for _, blob := range validPDStates(f, rig) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range []func() *PDOMFLP{
			func() *PDOMFLP { return NewPDOMFLP(rig.space, rig.costs, Options{}) },
			func() *PDOMFLP { return NewPDReference(rig.space, rig.costs, Options{}) },
		} {
			pd := mk()
			if err := pd.UnmarshalState(data); err != nil {
				continue
			}
			canon, err := pd.MarshalState()
			if err != nil {
				t.Fatalf("accepted state does not re-marshal: %v", err)
			}
			back := mk()
			if err := back.UnmarshalState(canon); err != nil {
				t.Fatalf("re-marshaled state refused: %v", err)
			}
			if again, _ := back.MarshalState(); string(again) != string(canon) {
				t.Fatal("canonical state is not a fixed point of restore+marshal")
			}
		}
	})
}
