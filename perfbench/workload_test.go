package main

import (
	"testing"
)

// TestSmallWorkloadsEndToEnd drives scaled-down server and routed workloads
// through every phase — setups, closed and open loops, the oracle gate and
// the restore — so the client's concurrent stream handling runs under the
// race detector.
func TestSmallWorkloadsEndToEnd(t *testing.T) {
	for _, sp := range []spec{
		{name: "small-checkpointed", tenants: 4, closed: 300, openRate: 12000, reps: 2, checkpoint: true},
		{name: "small-routed", tenants: 4, closed: 300, openRate: 12000, reps: 2, routed: true},
	} {
		t.Run(sp.name, func(t *testing.T) {
			var cnt counts
			rep, err := runWorkload(sp, 3, 1, t.TempDir(), &cnt)
			if err != nil {
				t.Fatal(err)
			}
			if cnt.failed != 0 || cnt.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", cnt.attempted, cnt.failed)
			}
			for _, name := range []string{"setup_s", "throughput_aps", "cpu_ns_per_arrival", "ack_p50_us", "ack_p99_us",
				"ack_p999_us", "failed_frac", "cost_over_dual", "heap_mb", "restore_s"} {
				if v, ok := rep.metrics[name]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value", name, v)
				}
			}
		})
	}
}
