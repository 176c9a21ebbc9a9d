package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/server"
	"repro/internal/workload"
)

// The instance shape every workload shares, as loadgen and ckpt-bench use
// it: a 25-point Euclidean metric, |S| = 8, uniform demands of 1..|S|/2+1
// commodities and the class-C cost cost.PowerLaw(8, 1, 1).
const (
	points    = 25
	universe  = 8
	maxDemand = universe/2 + 1
	// batchSize is the arrivals per BATCH frame and per engine batch: the
	// server's default TCP coalescing cap.
	batchSize = 64
)

// req is one generated arrival: its point and its demand set as a bitmask
// over the 8 commodities.
type req struct{ point, mask uint8 }

// maskIDs[m] lists the commodity ids in bitmask m.
var maskIDs = func() (ids [1 << universe][]int) {
	for m := range ids {
		for e := 0; e < universe; e++ {
			if m&(1<<e) != 0 {
				ids[m] = append(ids[m], e)
			}
		}
	}
	return ids
}()

func (r req) request() instance.Request {
	return instance.Request{Point: int(r.point), Demands: commodity.New(maskIDs[r.mask]...)}
}

func (r req) wireItem() server.WireItem {
	return server.WireItem{Point: int(r.point), Demands: maskIDs[r.mask]}
}

// createOp returns the create op every tenant of a seed is registered
// with: the seed's metric as a distance matrix and the cost model as a
// by-size table, the serializable substrate the op protocol carries.
func createOp(seed int64, tenant string) engine.Op {
	rng := workload.Rng(seed, 0)
	space := metric.RandomEuclidean(rng, points, 2, 100)
	costs := cost.PowerLaw(universe, 1, 1)
	dist := make([][]float64, points)
	for i := range dist {
		dist[i] = make([]float64, points)
		for j := range dist[i] {
			dist[i][j] = space.Distance(i, j)
		}
	}
	bySize := make([]float64, universe+1)
	for k := 1; k <= universe; k++ {
		bySize[k] = costs.Cost(0, commodity.Full(k))
	}
	return engine.Op{Op: "create", Tenant: tenant, Universe: universe, Distances: dist, CostBySize: bySize}
}

// createFrames renders one JSON create frame per tenant, ready to stream.
func createFrames(seed int64, tenants []string) ([][]byte, error) {
	op := createOp(seed, "")
	out := make([][]byte, len(tenants))
	for i, t := range tenants {
		op.Tenant = t
		b, err := json.Marshal(op)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// genStream returns tenant t's first n arrivals for seed. A tenant's stream
// depends only on (seed, t), so any prefix is the same whatever n is.
func genStream(seed int64, t, n int) []req {
	rng := workload.Rng(seed, 1, int64(t))
	out := make([]req, n)
	for i := range out {
		k := 1 + rng.Intn(maxDemand)
		p := rng.Intn(points)
		var m uint8
		commodity.RandomSubset(rng, universe, k).ForEach(func(e int) { m |= 1 << e })
		out[i] = req{point: uint8(p), mask: m}
	}
	return out
}

func tenantName(t int) string { return fmt.Sprintf("t%04d", t) }
