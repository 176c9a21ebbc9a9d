package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/engine"
)

// corollary8Slack absorbs float rounding in the incremental cost and dual
// sums; any real violation of cost ≤ 3·DualTotal is far larger.
const corollary8Slack = 1e-9

// encodeSnapshots renders compact snapshots exactly as GET /v1/snapshots
// does, so in-process and served artifacts compare byte for byte.
func encodeSnapshots(snaps []*engine.TenantSnapshot) ([]byte, error) {
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// oracleSnapshots feeds every tenant's stream into one in-process engine
// and returns its compact snapshots: the artifact every served run must
// reproduce byte for byte.
func oracleSnapshots(seed int64, names []string, streams [][]req) ([]byte, error) {
	shards := runtime.GOMAXPROCS(0)
	eng := engine.New(engine.Config{Shards: shards, ShardPolicy: engine.PolicyLeastLoad, Seed: seed})
	defer eng.Close()
	op := createOp(seed, "")
	for _, name := range names {
		op.Tenant = name
		if err := eng.Apply(op); err != nil {
			return nil, err
		}
	}
	// Least-load placement deals tenants to shards round-robin in creation
	// order; one feeder per shard keeps every shard busy.
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for t := g; t < len(names); t += shards {
				if err := serveAll(eng, names[t], streams[t]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	eng.Drain()
	snaps, err := eng.SnapshotAllCompact()
	if err != nil {
		return nil, err
	}
	return encodeSnapshots(snaps)
}

// serveAll hands a tenant's stream to the engine in batchSize batches.
func serveAll(eng *engine.Engine, tenant string, rs []req) error {
	for lo := 0; lo < len(rs); lo += batchSize {
		hi := min(lo+batchSize, len(rs))
		items := make([]engine.BatchItem, hi-lo)
		for i, r := range rs[lo:hi] {
			items[i].Req = r.request()
		}
		if _, err := eng.ServeBatch(tenant, items, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// checkSnapshots is the correctness gate on a run's final state: the served
// compact snapshots must be byte-identical to the oracle's, and every PD
// tenant must satisfy Corollary 8 (cost ≤ 3·DualTotal). It returns the
// decoded snapshots.
func checkSnapshots(what string, got, oracle []byte) ([]*engine.TenantSnapshot, error) {
	if !bytes.Equal(got, oracle) {
		return nil, fmt.Errorf("%s: compact snapshots (%d bytes) differ from the oracle's (%d bytes) at byte %d",
			what, len(got), len(oracle), firstDiff(got, oracle))
	}
	var snaps []*engine.TenantSnapshot
	if err := json.Unmarshal(got, &snaps); err != nil {
		return nil, fmt.Errorf("%s: decoding snapshots: %v", what, err)
	}
	if err := checkCorollary8(snaps); err != nil {
		return nil, fmt.Errorf("%s: %v", what, err)
	}
	return snaps, nil
}

// checkCorollary8 verifies cost ≤ 3·DualTotal for every tenant; every
// workload runs PD-OMFLP only.
func checkCorollary8(snaps []*engine.TenantSnapshot) error {
	for _, s := range snaps {
		if bound := 3 * s.DualTotal; s.Cost > bound*(1+corollary8Slack) {
			return fmt.Errorf("tenant %s breaks Corollary 8: cost %.9g > 3·DualTotal %.9g", s.Tenant, s.Cost, bound)
		}
	}
	return nil
}

// costOverDual is Σ cost / Σ DualTotal over tenants.
func costOverDual(snaps []*engine.TenantSnapshot) float64 {
	var c, d float64
	for _, s := range snaps {
		c += s.Cost
		d += s.DualTotal
	}
	return c / d
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
