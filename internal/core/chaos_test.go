package core_test

import (
	"fmt"
	"testing"

	"github.com/ginja-dr/ginja/internal/sim"
)

// TestChaosRandomCrashRecovery is the repository's strongest end-to-end
// property, now running on the deterministic simulation driver
// (internal/sim): for each seed, a fault schedule (provider outages,
// transient-failure windows, a primary crash at a random step) and a
// random workload with random Batch/Safety/TB/TS parameters run against
// the full stack entirely in virtual time, then the run recovers on a
// fresh machine and checks the consistent-prefix invariant:
//
//  1. everything acknowledged by the last Flush survives, and
//  2. there is a single cut point T in commit order such that every key
//     holds exactly its last value at-or-before T (no torn or reordered
//     state).
//
// Virtual time makes each seed take milliseconds regardless of how many
// simulated seconds of TB/TS timers, retry backoff, and cloud latency it
// spans, so this sweep covers an order of magnitude more seeds than the
// old wall-clock version in less total time. A failing seed prints its
// full schedule; replay it with
//
//	go test ./internal/core -run 'TestChaosRandomCrashRecovery/seed=N'
func TestChaosRandomCrashRecovery(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 32
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := sim.Run(sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if testing.Verbose() {
				t.Logf("%s: B=%d S=%d TB=%v TS=%v retries=%d, %d commits, %d checkpoints, flushed to %d, cut %d, %v virtual",
					res.Schedule, res.Params.Batch, res.Params.Safety, res.Params.BatchTimeout, res.Params.SafetyTimeout,
					res.Params.UploadRetries, res.Commits, res.Checkpoints, res.FlushedUpTo, res.Cut,
					res.VirtualElapsed)
			}
		})
	}
}
