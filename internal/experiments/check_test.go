package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateCase spoils one number of a passing result; Check must then fail
// with the message of the gate that number belongs to.
type gateCase[R any] struct {
	name  string
	spoil func(R)
	want  string
}

// testGates checks that the checked-in BENCH file decodes (every key
// known to the result type) and passes its own gates, and that each
// fabricated regression trips the gate it should.
func testGates[R interface{ Check() error }](t *testing.T, file string, newR func() R, cases []gateCase[R]) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	load := func() R {
		r := newR()
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(r); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		return r
	}
	if err := load().Check(); err != nil {
		t.Fatalf("checked-in %s fails its own gates: %v", file, err)
	}
	for _, c := range cases {
		r := load()
		c.spoil(r)
		if err := r.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestDatapathCheck(t *testing.T) {
	testGates(t, "BENCH_datapath.json", func() *DatapathResult { return new(DatapathResult) }, []gateCase[*DatapathResult]{
		{"peak over the streaming bound", func(r *DatapathResult) { r.Streaming.WithinBound = false },
			"streaming data path regressed: within_bound=false"},
		{"dump did not split", func(r *DatapathResult) { r.Streaming.DumpParts = 1 }, "parts=1"},
		{"bytes left queued", func(r *DatapathResult) { r.Streaming.QueueBytesAfter = 512 }, "queue_bytes_after=512"},
		{"delta ships too much", func(r *DatapathResult) { r.DeltaCheckpoint.BytesRatio = 0.16 },
			"delta checkpoints regressed: bytes_ratio=0.160"},
		{"delta gates too much", func(r *DatapathResult) { r.DeltaCheckpoint.GateRatio = 0.16 }, "gate_ratio=0.160"},
		{"no chain built", func(r *DatapathResult) { r.DeltaCheckpoint.ChainLen = 0 }, "chain_len=0"},
		{"chain recovery too slow", func(r *DatapathResult) { r.DeltaCheckpoint.RecoveryRatio = 2.1 }, "recovery_ratio=2.10"},
		{"recovery not identical", func(r *DatapathResult) { r.DeltaCheckpoint.RecoveredIdentical = false }, "identical=false"},
		{"delta peak over bound", func(r *DatapathResult) { r.DeltaCheckpoint.WithinBound = false }, "within_bound=false"},
	})
}

func TestCommitpathCheck(t *testing.T) {
	testGates(t, "BENCH_commitpath.json", func() *CommitpathResult { return new(CommitpathResult) }, []gateCase[*CommitpathResult]{
		{"batch past Safety", func(r *CommitpathResult) { r.AdaptiveRegimes[0].Adaptive.EffectiveBatch = 1025 },
			"effective batch 1025 outside [1, 1024]"},
		{"steady spend over the ceiling", func(r *CommitpathResult) {
			reg := &r.AdaptiveRegimes[1]
			reg.Adaptive.SteadyDollarsPerDay = reg.CeilingPerDay * 1.01
		}, "exceeds ceiling"},
		{"adaptive slower than best fixed", func(r *CommitpathResult) {
			reg := &r.AdaptiveRegimes[1]
			reg.Adaptive.P50BatchMs = 1.11 * reg.BestFeasibleFixedP50Ms
		}, "worse than 1.1x best feasible fixed"},
		{"adaptive loses on throughput", func(r *CommitpathResult) {
			r.AdaptiveThroughput.Adaptive.CommitsPerSec = r.AdaptiveThroughput.FixedDefault.CommitsPerSec - 1
		}, "adaptive throughput regressed"},
		{"adaptive overspends", func(r *CommitpathResult) {
			r.AdaptiveThroughput.Adaptive.DollarsPerDay = r.AdaptiveThroughput.FixedDefault.DollarsPerDay + 0.01
		}, "adaptive throughput gate overspends"},
	})
}

func TestRecoveryBenchCheck(t *testing.T) {
	testGates(t, "BENCH_recovery.json", func() *RecoveryBenchResult { return new(RecoveryBenchResult) }, []gateCase[*RecoveryBenchResult]{
		{"a run went missing", func(r *RecoveryBenchResult) { r.Scenarios[0].Runs-- }, "recovery bench regressed: scenario crash-mid-batch"},
		{"recovery fetched nothing", func(r *RecoveryBenchResult) { r.Scenarios[2].MeanObjects = 0 }, "scenario crash-during-dump"},
		{"no data-loss window anywhere", func(r *RecoveryBenchResult) {
			for i := range r.Scenarios {
				r.Scenarios[i].RPOMaxMs = 0
			}
		}, "no scenario measured a non-zero RPO"},
		{"warm standby barely faster", func(r *RecoveryBenchResult) { r.WarmStandby.Speedup = 4.9 },
			"speedup=4.90 (want >= 5x over cold)"},
		{"warm standby never promoted", func(r *RecoveryBenchResult) { r.WarmStandby.WarmRTOp50Ms = 0 }, "warm_rto_p50=0.000"},
	})
}

func TestFleetBenchCheck(t *testing.T) {
	testGates(t, "BENCH_fleet.json", func() *FleetBenchResult { return new(FleetBenchResult) }, []gateCase[*FleetBenchResult]{
		{"a Safety miss at 100 tenants", func(r *FleetBenchResult) { r.Rows[2].SafetyDeadlineMisses = 1 },
			"1 safety deadline misses at 100 tenants (want 0)"},
		{"goroutines per tenant", func(r *FleetBenchResult) { r.Rows[3].GoroutinesPerTenant = 12.5 },
			"12.50 goroutines per tenant at 1000 tenants"},
		{"hot tenant taxed", func(r *FleetBenchResult) { r.P50RatioAt100 = 1.51 }, "commit p50 at 100 tenants is 1.51x solo"},
		{"goroutines grow with the fleet", func(r *FleetBenchResult) { r.GoroutineGrowth10To1000 = 0.11 }, "goroutines +11.0%"},
		{"heap grows with the fleet", func(r *FleetBenchResult) { r.HeapGrowth10To1000 = 0.11 }, "heap +11.0%"},
	})
}
