package sim

import (
	"testing"

	"github.com/ginja-dr/ginja/internal/simclock"
)

// TestRunFleetSmall drives the fleet drill across several seeds at a
// size where every seed still finishes quickly: admission churn, the
// single-tenant crash, recovery, and the survivors' health all run on
// each seed's deterministic schedule.
func TestRunFleetSmall(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res, err := RunFleet(FleetConfig{
			Seed:           seed,
			Tenants:        12,
			Writers:        4,
			StepsPerWriter: 30,
			Churn:          3,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Commits == 0 {
			t.Fatalf("seed %d: no commits", seed)
		}
		if res.ChurnEvicted == 0 || res.ChurnAdmitted != res.ChurnEvicted {
			t.Fatalf("seed %d: churn evicted=%d admitted=%d", seed, res.ChurnEvicted, res.ChurnAdmitted)
		}
		if res.CrashedTenant == "" || res.CrashedCut < -1 {
			t.Fatalf("seed %d: crash drill incomplete: %+v", seed, res)
		}
		t.Logf("seed %d: %d commits across %d writers, crash %s cut=%d flushed=%d, misses=%d, virtual %s",
			seed, res.Commits, res.Writers, res.CrashedTenant, res.CrashedCut,
			res.CrashedFlushed, res.SafetyDeadlineMisses, res.VirtualElapsed)
	}
}

// TestRunFleetThousand is the scale drill: a thousand tenant databases
// in one process over one bucket — most idle, their timers multiplexed
// on the shared clock — with churn, a crash and a recovery running in
// the middle of them. The idle tenants must cost nothing: zero Safety
// deadline misses fleet-wide.
//
// It runs without the token oracle: one stop-the-world dump of ~5 000
// goroutines costs ≈ 9 ms, once per advance, which turns the 0.2 s drill
// into minutes. The same fleet code runs under the oracle in
// TestRunFleetSmall and in the fleet bench smoke.
func TestRunFleetThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-tenant drill skipped in -short")
	}
	defer simclock.SetOracle(simclock.SetOracle(nil))
	res, err := RunFleet(FleetConfig{
		Seed:           7,
		Tenants:        1000,
		Writers:        8,
		StepsPerWriter: 25,
		Churn:          20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants != 1000 {
		t.Fatalf("Tenants = %d", res.Tenants)
	}
	if res.ChurnEvicted != 20 && res.ChurnEvicted != res.ChurnAdmitted {
		t.Fatalf("churn evicted=%d admitted=%d", res.ChurnEvicted, res.ChurnAdmitted)
	}
	if res.SafetyDeadlineMisses != 0 {
		t.Fatalf("SafetyDeadlineMisses = %d, want 0 (idle tenants starved)", res.SafetyDeadlineMisses)
	}
	t.Logf("1000 tenants: %d commits, crash %s cut=%d flushed=%d, churn %d, virtual %s",
		res.Commits, res.CrashedTenant, res.CrashedCut, res.CrashedFlushed,
		res.ChurnEvicted, res.VirtualElapsed)
}
