package sim

import (
	"runtime"
	"testing"
)

// TestRunTraceIsSeedOnly: one schedule with delta checkpoints and a warm
// standby, run at three core counts, issues the same cloud operations at
// the same virtual instants every time — the exact token count, not the
// Go scheduler, decides when time moves. The constant pins the trace
// across runs too (and under -race, which reschedules everything).
func TestRunTraceIsSeedOnly(t *testing.T) {
	const want = 0xb6a379ab6df248ed
	cfg := Config{Seed: 5, Deltas: true, Follower: true}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if res.TraceHash != want {
			t.Errorf("GOMAXPROCS=%d: trace hash %#x, want %#x", procs, res.TraceHash, uint64(want))
		}
	}
}

// TestRunFleetTraceIsSeedOnly is the same pin for the fleet drill, whose
// scheduler hands its shared upload and fetch slots between tenants
// directly on the virtual clock.
func TestRunFleetTraceIsSeedOnly(t *testing.T) {
	const want = 0x7806350077e94435
	cfg := FleetConfig{Seed: 1, Tenants: 12, Writers: 4, StepsPerWriter: 30, Churn: 3}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := RunFleet(cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if res.TraceHash != want {
			t.Errorf("GOMAXPROCS=%d: trace hash %#x, want %#x", procs, res.TraceHash, uint64(want))
		}
	}
}
