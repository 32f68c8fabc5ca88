package experiments

import "testing"

// The acceptance bar for the parallel data path: at parallelism 5 on the
// simulated WAN, dump upload and disaster recovery must both be at least
// 2x faster than the serial baseline — on top of the streaming and
// delta-checkpoint gates, which Check enforces. Virtual time makes this
// exact and fast to check.
func TestDatapathParallelSpeedup(t *testing.T) {
	res, err := RunDatapath(DatapathOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Error(err)
	}
	t.Logf("dump:     serial %.1fms, parallel(%d) %.1fms, speedup %.2fx (%d parts)",
		res.Serial.DumpUploadMs, res.Parallel.Parallelism, res.Parallel.DumpUploadMs,
		res.DumpSpeedup, res.Parallel.DumpParts)
	t.Logf("recovery: serial %.1fms, parallel(%d) %.1fms, speedup %.2fx (%d objects)",
		res.Serial.RecoveryMs, res.Parallel.Parallelism, res.Parallel.RecoveryMs,
		res.RecoverySpeedup, res.Parallel.RecoveryObjects)
	t.Logf("seal allocs/op %.1f, open allocs/op %.1f", res.SealAllocsPerOp, res.OpenAllocsPerOp)

	if res.Parallel.DumpParts < 3 {
		t.Fatalf("dump split into only %d parts; the scenario does not exercise parallel PUTs", res.Parallel.DumpParts)
	}
	if res.DumpSpeedup < 2 {
		t.Errorf("dump speedup %.2fx, want >= 2x", res.DumpSpeedup)
	}
	if res.RecoverySpeedup < 2 {
		t.Errorf("recovery speedup %.2fx, want >= 2x", res.RecoverySpeedup)
	}
	// The pooled sealer should allocate only the output buffer (and a
	// handful of incidentals), not a zlib encoder per call.
	if res.SealAllocsPerOp > 16 {
		t.Errorf("seal allocs/op = %.1f, want pooled-path small (<= 16)", res.SealAllocsPerOp)
	}
}
