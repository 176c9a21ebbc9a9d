package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/commodity"
	"repro/internal/instance"
	"repro/internal/ofl"
	"repro/internal/online"
)

// This file implements online.StateCodec for the core algorithms: the
// complete serving state of PD-OMFLP, RAND-OMFLP and the heavy-aware
// extension. The paper's algorithms are online — each arrival freezes a
// small, well-defined increment of state (duals and credits for PD,
// coin-flip position and open facilities for RAND) — so the state is
// exactly recoverable without replaying the arrival history, which is what
// the engine's checkpoint format v2 builds on.
//
// Derived caches are deliberately NOT serialized: the facility-index nearest
// caches, the cost-table distance rows, PD's live-credit commodity list,
// running dual total, threshold cache, row-encoding cache and per-arrival
// scratch buffers, and RAND's per-point budget caches are pure functions of
// the serialized state (or pure scratch) and rebuild with the same
// tie-breaking (earliest-opened facility wins), so a restored instance
// serves any suffix bit-identically to the original.
//
// PD-OMFLP's state is binary (pdStateSchema; layout below). Floats are
// stored as their raw IEEE-754 bits, so every dual, credit and bid
// accumulator survives exactly. Each arrival's row is frozen once served,
// so an instance keeps the rows' encoding in an append-only cache and a
// marshal encodes only the rows served since the previous one: a seal
// costs O(new rows + live credits + |S|·|cands|) plus a copy of the cache,
// not a re-encode of the history. Dead credits (0) are pruned from the
// ledgers as they die, so the credit section stays small too.
//
// RAND-OMFLP and the heavy-aware wrapper stay JSON. Their floats survive
// too: encoding/json emits the shortest representation that parses back to
// the same float64, and every serialized quantity is finite (the internal
// "infinity" sentinel is the finite 1e308). The heavy-aware state carries
// the inner PD state as bytes (base64 in the JSON document).

// stateSchema versions the JSON state layouts (RAND-OMFLP, heavy-aware);
// bump on any incompatible change.
const stateSchema = 1

// facilityState is one open facility as serialized state. Small facilities
// offer the single commodity E; large facilities (Large true) offer the full
// universe. The explicit flag matters: in a universe of size 1 a large
// facility's configuration equals the singleton's, so the configuration
// alone cannot distinguish them.
type facilityState struct {
	Point int  `json:"p"`
	E     int  `json:"e,omitempty"`
	Large bool `json:"l,omitempty"`
}

// PD-OMFLP binary state layout. Integers are unsigned varints
// (encoding/binary, as on the server's binary wire); floats are 8 raw
// little-endian IEEE-754 bytes.
//
//	magic       pdStateMagic
//	header      schema, universe, candidates, rows
//	rows        rows × (point, k, k demand ids, k duals, facBoundary,
//	            nLinks, nLinks assignment links)
//	facilities  n, n × (point, kind) — kind 0 = large, e+1 = small for e
//	credits     for each commodity e: n, n × (point, credit); then the
//	            large ledger the same way. Only live (> 0) credits.
//	bids        one byte: 0 when the instance runs naive reference bids
//	            (no rows); 1, then per commodity a presence byte and, if
//	            1, candidates floats; then candidates floats of the large row
//
// The magic byte is not '{', so a JSON state of schema 1 is recognised and
// refused with a schema error rather than misparsed.
const (
	pdStateMagic  = 0xD5
	pdStateSchema = 2
)

// MarshalState implements online.StateCodec. It refuses instances running
// with TraceAnalysis: the Lemma 14 analysis history is diagnostic-only and
// deliberately outside the serving-state contract. It extends the row
// cache, so like Serve it must not run concurrently with another call on
// the instance. The returned bytes are the caller's.
func (pd *PDOMFLP) MarshalState() ([]byte, error) {
	if pd.opts.TraceAnalysis {
		return nil, fmt.Errorf("core: PD-OMFLP state marshal does not support TraceAnalysis")
	}
	pd.encodeNewRows()
	nc := len(pd.ct.cands)
	facs := facilitiesToState(pd.fx)
	credits := len(pd.creditLarge)
	for _, row := range pd.creditSmall {
		credits += len(row)
	}
	// Size the buffer for the whole state so the row cache, its bulk, is
	// copied once.
	tail := (2*len(facs)+pd.u+2+credits)*binary.MaxVarintLen64 + 8*credits + 1 + (pd.u+1)*(1+8*nc)
	buf := make([]byte, 0, 1+4*binary.MaxVarintLen64+len(pd.rowEnc)+tail)
	buf = append(buf, pdStateMagic)
	for _, v := range []int{pdStateSchema, pd.u, nc, len(pd.points)} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = append(buf, pd.rowEnc...)
	buf = binary.AppendUvarint(buf, uint64(len(facs)))
	for _, f := range facs {
		kind := 0
		if !f.Large {
			kind = f.E + 1
		}
		buf = binary.AppendUvarint(buf, uint64(f.Point))
		buf = binary.AppendUvarint(buf, uint64(kind))
	}
	for _, row := range pd.creditSmall {
		buf = appendCredits(buf, row)
	}
	buf = appendCredits(buf, pd.creditLarge)
	if pd.naiveBids {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	for _, row := range pd.bidSmall {
		if row == nil {
			buf = append(buf, 0)
			continue
		}
		buf = appendFloats(append(buf, 1), row)
	}
	return appendFloats(buf, pd.bidLarge), nil
}

// encodeNewRows appends the rows served since the last marshal to the row
// cache. Rows already in it are never re-encoded.
func (pd *PDOMFLP) encodeNewRows() {
	for i := pd.rowEncN; i < len(pd.points); i++ {
		pd.rowEnc = pd.appendRow(pd.rowEnc, i)
	}
	pd.rowEncN = len(pd.points)
}

// appendRow appends arrival i's row in the state layout.
func (pd *PDOMFLP) appendRow(buf []byte, i int) []byte {
	buf = binary.AppendUvarint(buf, uint64(pd.points[i]))
	buf = appendUvarints(buf, pd.demandIDs[i])
	buf = appendFloats(buf, pd.duals[i])
	buf = binary.AppendUvarint(buf, uint64(pd.facBoundary[i]))
	return appendUvarints(buf, pd.fx.sol.Assign[i])
}

// appendUvarints appends len(vs) and then every value.
func appendUvarints(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func appendFloats(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendCredits(buf []byte, credits []pdCredit) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(credits)))
	for _, cr := range credits {
		buf = binary.AppendUvarint(buf, uint64(cr.point))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cr.credit))
	}
	return buf
}

// UnmarshalState implements online.StateCodec; see the interface contract —
// the receiver must be freshly constructed with the parameters of the
// instance that was marshaled. The whole state is decoded and checked
// before any of it is installed, so a refused state leaves the receiver
// fresh.
func (pd *PDOMFLP) UnmarshalState(data []byte) error {
	if pd.opts.TraceAnalysis {
		return fmt.Errorf("core: PD-OMFLP state restore does not support TraceAnalysis")
	}
	if len(pd.points) != 0 || len(pd.fx.sol.Facilities) != 0 {
		return fmt.Errorf("core: PD-OMFLP state restore needs a fresh instance")
	}
	if len(data) > 0 && data[0] == '{' {
		var head struct {
			Schema int `json:"schema"`
		}
		if err := json.Unmarshal(data, &head); err != nil {
			return fmt.Errorf("core: PD-OMFLP state: JSON document, want binary schema %d: %v", pdStateSchema, err)
		}
		return fmt.Errorf("core: PD-OMFLP state schema %d (JSON), want binary schema %d", head.Schema, pdStateSchema)
	}
	if len(data) == 0 || data[0] != pdStateMagic {
		return fmt.Errorf("core: PD-OMFLP state: missing magic byte 0x%02x", pdStateMagic)
	}
	r := &stateReader{b: data[1:]}
	schema := r.index("schema", math.MaxInt32)
	universe := r.index("universe", math.MaxInt32)
	nc := r.index("candidates", math.MaxInt32)
	if r.err != nil {
		return r.err
	}
	if err := checkStateHeader("PD-OMFLP", schema, pdStateSchema, universe, pd.u, nc, len(pd.ct.cands)); err != nil {
		return err
	}
	nPts := pd.space.Len()

	// Rows. Every row holds at least four varints.
	n := r.count("rows", 4)
	rowBytes := r.b
	var (
		points, facBoundary []int
		demandIDs, assign   [][]int
		duals               [][]float64
		intSlab             []int
		floatSlab           []float64
	)
	if n > 0 {
		points, facBoundary = make([]int, n), make([]int, n)
		demandIDs, assign, duals = make([][]int, n), make([][]int, n), make([][]float64, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		points[i] = r.index("point", nPts)
		k := r.count("demands", 1+8) // an id varint and a dual each
		ids := slab(&intSlab, k)
		for j := range ids {
			ids[j] = r.index("demand id", pd.u)
			if j > 0 && ids[j] <= ids[j-1] {
				r.fail("row %d demand ids not ascending", i)
			}
		}
		demandIDs[i] = ids
		duals[i] = r.floats(slab(&floatSlab, k))
		facBoundary[i] = r.index("facility boundary", math.MaxInt32)
		if nl := r.count("links", 1); nl > 0 {
			links := slab(&intSlab, nl)
			for j := range links {
				links[j] = r.index("link", facBoundary[i])
			}
			assign[i] = links
		}
		if i > 0 && facBoundary[i] < facBoundary[i-1] {
			r.fail("row %d facility boundary decreases", i)
		}
	}
	rowBytes = rowBytes[:len(rowBytes)-len(r.b)]

	// Facilities: opened only while serving, so the last row's boundary
	// counts them all.
	facs := make([]facilityState, r.count("facilities", 2))
	for i := range facs {
		facs[i].Point = r.index("facility point", nPts)
		if kind := r.index("facility kind", pd.u+1); kind == 0 {
			facs[i].Large = true
		} else {
			facs[i].E = kind - 1
		}
	}
	last := 0
	if n > 0 {
		last = facBoundary[n-1]
	}
	if last != len(facs) {
		r.fail("%d facilities, but the rows account for %d", len(facs), last)
	}

	creditSmall := make([][]pdCredit, pd.u)
	for e := range creditSmall {
		creditSmall[e] = r.credits(nPts)
	}
	creditLarge := r.credits(nPts)

	bidSmall := make([][]float64, pd.u)
	var bidLarge []float64
	switch r.byte("bid flag") {
	case 0:
	case 1:
		for e := range bidSmall {
			switch r.byte("bid row flag") {
			case 0:
				if len(creditSmall[e]) > 0 {
					r.fail("commodity %d has credits but no bid row", e)
				}
			case 1:
				// The row length is the constructor's candidate count,
				// not a count read from the state.
				bidSmall[e] = r.floats(make([]float64, nc))
			default:
				r.fail("bad bid row flag")
			}
		}
		bidLarge = r.floats(make([]float64, nc))
	default:
		r.fail("bad bid flag")
	}
	if len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return r.err
	}

	// Install.
	if err := restoreFacilities(pd.fx, facs); err != nil {
		return err
	}
	pd.fx.sol.Assign = assign
	pd.points, pd.demandIDs, pd.duals, pd.facBoundary = points, demandIDs, duals, facBoundary
	for _, row := range duals {
		for _, v := range row {
			pd.dualSum += v
		}
	}
	pd.rowEnc = append([]byte(nil), rowBytes...)
	pd.rowEncN = n
	for e, credits := range creditSmall {
		pd.creditSmall[e] = credits
		if len(credits) > 0 {
			// liveSmall is derived state (the commodities with credits);
			// ascending order here vs first-credit order on a live instance
			// is fine — refresh sweeps treat rows independently.
			pd.liveSmall = append(pd.liveSmall, e)
		}
	}
	pd.creditLarge = creditLarge
	// The threshold cache is derived from the bid rows; drop any stale one
	// so serveEvent rebuilds it against the restored state.
	pd.thr = nil
	if pd.naiveBids {
		return nil // reference mode recomputes bids per arrival
	}
	if bidLarge != nil {
		// State from an incremental instance: adopt the exact accumulator
		// values (bit-identical continuation).
		pd.bidSmall, pd.bidLarge = bidSmall, bidLarge
		return nil
	}
	// State from a naive reference instance: rebuild the accumulators from
	// the (current) credit values.
	for e, credits := range pd.creditSmall {
		for _, cr := range credits {
			pd.addBidRestored(e, cr)
		}
	}
	for _, cr := range pd.creditLarge {
		pd.addBid(pd.bidLarge, cr.point, cr.credit, nil)
	}
	return nil
}

// stateReader decodes the PD binary state. The first error sticks: later
// reads return zero values and consume nothing, and every count is checked
// against the bytes left before anything is allocated for it, so a corrupt
// or truncated state costs at most O(len(state)) work and memory.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: PD-OMFLP state: "+format, args...)
	}
}

// uvarint reads one unsigned varint.
func (r *stateReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong %s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// index reads a varint that must lie in [0, limit).
func (r *stateReader) index(what string, limit int) int {
	v := r.uvarint(what)
	if r.err == nil && v >= uint64(limit) {
		r.fail("%s %d outside [0, %d)", what, v, limit)
		return 0
	}
	return int(v)
}

// count reads an element count for elements of at least size bytes each
// and refuses one the remaining bytes cannot hold.
func (r *stateReader) count(what string, size int) int {
	v := r.uvarint(what)
	if r.err == nil && v > uint64(len(r.b)/size) {
		r.fail("%d %s cannot fit in the %d bytes left", v, what, len(r.b))
		return 0
	}
	return int(v)
}

func (r *stateReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated %s", what)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// floats fills dst with raw IEEE-754 values and returns it.
func (r *stateReader) floats(dst []float64) []float64 {
	if r.err != nil {
		return dst
	}
	if len(r.b) < 8*len(dst) {
		r.fail("truncated floats")
		return dst
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*len(dst):]
	return dst
}

// credits reads one credit ledger; every credit must be live (> 0, finite).
func (r *stateReader) credits(nPts int) []pdCredit {
	n := r.count("credits", 1+8)
	if n == 0 {
		return nil
	}
	out := make([]pdCredit, n)
	var raw [1]float64
	for i := range out {
		out[i].point = r.index("credit point", nPts)
		out[i].credit = r.floats(raw[:])[0]
		if c := out[i].credit; r.err == nil && !(c > 0 && c <= math.MaxFloat64) {
			r.fail("credit %g is not live", c)
		}
	}
	return out
}

// slab carves an n-element row out of a shared backing array, so decoding
// allocates per chunk rather than per row. The row's capacity is capped at
// its length: appending to it reallocates instead of clobbering its
// neighbour.
func slab[T any](s *[]T, n int) []T {
	if n == 0 {
		return []T{}
	}
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, 4096))
	}
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l+n : l+n]
}

// addBidRestored folds one restored small credit into commodity e's bid row,
// allocating the row on first use exactly like addCreditSmall.
func (pd *PDOMFLP) addBidRestored(e int, cr pdCredit) {
	row := pd.bidSmall[e]
	if row == nil {
		row = make([]float64, len(pd.ct.cands))
		pd.bidSmall[e] = row
	}
	pd.addBid(row, cr.point, cr.credit, nil)
}

// randState is RAND-OMFLP's serialized state. The rng position is recorded
// as the number of coin flips drawn: a freshly constructed instance with the
// same seed fast-forwards its generator by Draws to resume the identical
// random stream (O(Draws) at a few ns per draw — cheap next to replaying
// arrivals, and the only way to serialize math/rand's opaque source).
type randState struct {
	Schema     int `json:"schema"`
	Universe   int `json:"universe"`
	Candidates int `json:"candidates"`

	Facilities []facilityState `json:"facilities"`
	Assign     [][]int         `json:"assign"`
	Served     int             `json:"served"`
	Draws      int64           `json:"draws"`
}

// MarshalState implements online.StateCodec.
func (ra *RandOMFLP) MarshalState() ([]byte, error) {
	st := randState{
		Schema:     stateSchema,
		Universe:   ra.u,
		Candidates: ra.nCands,
		Facilities: facilitiesToState(ra.fx),
		Assign:     ra.fx.sol.Assign,
		Served:     len(ra.fx.sol.Assign),
		Draws:      ra.draws,
	}
	return json.Marshal(&st)
}

// UnmarshalState implements online.StateCodec; the receiver must be freshly
// constructed with the same space, costs, options and rng seed.
func (ra *RandOMFLP) UnmarshalState(data []byte) error {
	if len(ra.fx.sol.Facilities) != 0 || len(ra.fx.sol.Assign) != 0 || ra.draws != 0 {
		return fmt.Errorf("core: RAND-OMFLP state restore needs a fresh instance")
	}
	var st randState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: RAND-OMFLP state: %v", err)
	}
	if err := checkStateHeader("RAND-OMFLP", st.Schema, stateSchema, st.Universe, ra.u, st.Candidates, ra.nCands); err != nil {
		return err
	}
	if st.Served != len(st.Assign) {
		return fmt.Errorf("core: RAND-OMFLP state served %d requests but carries %d assignments", st.Served, len(st.Assign))
	}
	if err := restoreFacilities(ra.fx, st.Facilities); err != nil {
		return err
	}
	ra.fx.sol.Assign = st.Assign
	for _, f := range st.Facilities {
		if f.Large {
			ra.largeOpen[f.Point] = true
		} else {
			ra.smallOpen[[2]int{f.E, f.Point}] = true
		}
	}
	for i := int64(0); i < st.Draws; i++ {
		ra.rng.Float64()
	}
	ra.draws = st.Draws
	return nil
}

// heavyState is the heavy-aware extension's serialized state: the inner
// PD-OMFLP state, each heavy commodity's OFL state, and the global
// solution-translation bookkeeping. The light/heavy split itself is a pure
// function of the constructor parameters and is re-derived, not serialized.
type heavyState struct {
	Schema   int `json:"schema"`
	Universe int `json:"universe"`

	Inner []byte          `json:"inner"` // PD-OMFLP binary state, base64 in JSON
	Heavy []heavySubState `json:"heavy,omitempty"`

	Facilities    []heavyFacilityState `json:"facilities"`
	Assign        [][]int              `json:"assign"`
	InnerToGlobal []int                `json:"inner_to_global,omitempty"`
	HeavyFacIdx   []heavyFacIdxState   `json:"heavy_fac_idx,omitempty"`
}

type heavySubState struct {
	E     int             `json:"e"`
	State json.RawMessage `json:"state"`
}

type heavyFacilityState struct {
	Point int   `json:"p"`
	IDs   []int `json:"ids"`
}

type heavyFacIdxState struct {
	E     int `json:"e"`
	Point int `json:"p"`
	Idx   int `json:"i"`
}

// MarshalState implements online.StateCodec.
func (ha *HeavyAware) MarshalState() ([]byte, error) {
	inner, err := ha.inner.MarshalState()
	if err != nil {
		return nil, err
	}
	st := heavyState{
		Schema:        stateSchema,
		Universe:      ha.u,
		Inner:         inner,
		Facilities:    make([]heavyFacilityState, len(ha.sol.Facilities)),
		Assign:        ha.sol.Assign,
		InnerToGlobal: ha.innerToGlobal,
	}
	for i, f := range ha.sol.Facilities {
		st.Facilities[i] = heavyFacilityState{Point: f.Point, IDs: f.Config.IDs()}
	}
	for _, e := range ha.heavy {
		sub, err := ha.heavyA[e].MarshalState()
		if err != nil {
			return nil, err
		}
		st.Heavy = append(st.Heavy, heavySubState{E: e, State: sub})
	}
	for key, idx := range ha.heavyFacIdx { //omflp:orderinvariant — entries are sorted by (E, Point) below before serialization
		st.HeavyFacIdx = append(st.HeavyFacIdx, heavyFacIdxState{E: key[0], Point: key[1], Idx: idx})
	}
	sort.Slice(st.HeavyFacIdx, func(i, j int) bool {
		a, b := st.HeavyFacIdx[i], st.HeavyFacIdx[j]
		if a.E != b.E {
			return a.E < b.E
		}
		return a.Point < b.Point
	})
	return json.Marshal(&st)
}

// UnmarshalState implements online.StateCodec; the receiver must be freshly
// constructed with the same space, costs, options and threshold.
func (ha *HeavyAware) UnmarshalState(data []byte) error {
	if len(ha.sol.Facilities) != 0 || len(ha.sol.Assign) != 0 {
		return fmt.Errorf("core: heavy-aware state restore needs a fresh instance")
	}
	var st heavyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: heavy-aware state: %v", err)
	}
	if st.Schema != stateSchema {
		return fmt.Errorf("core: heavy-aware state schema %d, want %d", st.Schema, stateSchema)
	}
	if st.Universe != ha.u {
		return fmt.Errorf("core: heavy-aware state universe %d, want %d", st.Universe, ha.u)
	}
	if len(st.Heavy) != len(ha.heavy) {
		return fmt.Errorf("core: heavy-aware state has %d heavy commodities, want %d (different split?)",
			len(st.Heavy), len(ha.heavy))
	}
	if err := ha.inner.UnmarshalState(st.Inner); err != nil {
		return err
	}
	for _, sub := range st.Heavy {
		alg, ok := ha.heavyA[sub.E]
		if !ok {
			return fmt.Errorf("core: heavy-aware state names heavy commodity %d, not heavy here", sub.E)
		}
		if err := alg.UnmarshalState(sub.State); err != nil {
			return err
		}
	}
	for _, f := range st.Facilities {
		ha.sol.Facilities = append(ha.sol.Facilities, instance.Facility{Point: f.Point, Config: commodity.New(f.IDs...)})
	}
	ha.sol.Assign = st.Assign
	ha.innerToGlobal = st.InnerToGlobal
	for _, x := range st.HeavyFacIdx {
		ha.heavyFacIdx[[2]int{x.E, x.Point}] = x.Idx
	}
	return nil
}

// facilitiesToState serializes a facility index's open facilities in opening
// order with explicit small/large kinds.
func facilitiesToState(fx *facilityIndex) []facilityState {
	large := make(map[int]bool, len(fx.large))
	for _, idx := range fx.large {
		large[idx] = true
	}
	out := make([]facilityState, len(fx.sol.Facilities))
	for i, f := range fx.sol.Facilities {
		if large[i] {
			out[i] = facilityState{Point: f.Point, Large: true}
		} else {
			out[i] = facilityState{Point: f.Point, E: f.Config.IDs()[0]}
		}
	}
	return out
}

// restoreFacilities replays the serialized opening sequence through a fresh
// facility index, rebuilding the per-commodity lists (and leaving the
// nearest caches to refill lazily with identical tie-breaking).
func restoreFacilities(fx *facilityIndex, facs []facilityState) error {
	for _, f := range facs {
		if f.Point < 0 || f.Point >= fx.space.Len() {
			return fmt.Errorf("core: state facility at point %d outside space of %d points", f.Point, fx.space.Len())
		}
		if f.Large {
			fx.openLarge(f.Point)
			continue
		}
		if f.E < 0 || f.E >= fx.u {
			return fmt.Errorf("core: state facility for commodity %d outside universe of %d", f.E, fx.u)
		}
		fx.openSmall(f.E, f.Point)
	}
	return nil
}

func checkStateHeader(alg string, schema, wantSchema, universe, wantU, cands, wantCands int) error {
	if schema != wantSchema {
		return fmt.Errorf("core: %s state schema %d, want %d", alg, schema, wantSchema)
	}
	if universe != wantU {
		return fmt.Errorf("core: %s state universe %d, want %d", alg, universe, wantU)
	}
	if cands != wantCands {
		return fmt.Errorf("core: %s state has %d candidates, want %d", alg, cands, wantCands)
	}
	return nil
}

// Interface conformance (compile-time): the core algorithms and the ofl
// substrates satisfy online.StateCodec.
var (
	_ online.StateCodec = (*PDOMFLP)(nil)
	_ online.StateCodec = (*RandOMFLP)(nil)
	_ online.StateCodec = (*HeavyAware)(nil)
	_ online.StateCodec = (*ofl.FotakisPD)(nil)
	_ online.StateCodec = (*ofl.Meyerson)(nil)
)
