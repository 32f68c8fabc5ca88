package experiments

import "testing"

// The acceptance bar for WAL batch packing: for a B=50 small-write
// workload on the simulated 40 ms-RTT store, the packed commit path must
// issue ≤ ceil(batch bytes / MaxObjectSize) PUTs per batch (one, here),
// deliver ≥ 2× commit throughput, cost less per day in the §7.1 model,
// and keep the steady-state submit→upload path at ≤ 2 allocs per commit —
// on top of the adaptive controller's gates, which Check enforces.
func TestCommitpathPackingSpeedup(t *testing.T) {
	res, err := RunCommitpath(CommitpathOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Error(err)
	}
	t.Logf("unpacked: %.0f commits/s, %.1f PUTs/batch, p50 %.0fms p99 %.0fms, $%.3f/day",
		res.Unpacked.CommitsPerSec, res.Unpacked.PutsPerBatch,
		res.Unpacked.P50BatchMs, res.Unpacked.P99BatchMs, res.Unpacked.DollarsPerDay)
	t.Logf("packed:   %.0f commits/s, %.1f PUTs/batch, p50 %.0fms p99 %.0fms, $%.3f/day",
		res.Packed.CommitsPerSec, res.Packed.PutsPerBatch,
		res.Packed.P50BatchMs, res.Packed.P99BatchMs, res.Packed.DollarsPerDay)
	t.Logf("throughput speedup %.2fx, PUT reduction %.1fx, %.2f allocs/commit",
		res.ThroughputSpeedup, res.PutReduction, res.AllocsPerCommit)

	// 50 × 256 B ≪ MaxObjectSize: a full batch must ride a single PUT.
	if res.Packed.PutsPerBatch > 1.01 {
		t.Errorf("packed PUTs/batch = %.2f, want ≤ 1 for this workload", res.Packed.PutsPerBatch)
	}
	if res.Unpacked.PutsPerBatch < 10 {
		t.Errorf("unpacked PUTs/batch = %.2f; the baseline no longer exercises the problem", res.Unpacked.PutsPerBatch)
	}
	if res.ThroughputSpeedup < 2 {
		t.Errorf("throughput speedup %.2fx, want ≥ 2x", res.ThroughputSpeedup)
	}
	if res.Packed.DollarsPerDay >= res.Unpacked.DollarsPerDay {
		t.Errorf("packed $%.4f/day not cheaper than unpacked $%.4f/day",
			res.Packed.DollarsPerDay, res.Unpacked.DollarsPerDay)
	}
	if res.AllocsPerCommit > 2 {
		t.Errorf("allocs/commit = %.2f, want ≤ 2 on the steady-state hot path", res.AllocsPerCommit)
	}
}
