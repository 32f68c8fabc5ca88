// Command ginja-benchjson benchmarks one of Ginja's cloud paths on the
// deterministic simulated WAN and writes the result as JSON:
//
//   - -path datapath (default): multi-part dump upload, disaster-recovery
//     prefetch and the sealer allocation profile → BENCH_datapath.json
//   - -path commit: WAL batch packing — commit throughput, batch-latency
//     quantiles, PUTs-per-batch, allocs-per-commit and the costmodel
//     $/day projection, packed vs unpacked → BENCH_commitpath.json
//   - -path recovery: measured RPO/RTO — deterministic sim fault schedules
//     (crash mid-batch, outage then crash, crash during dump) replayed
//     across seeds; data-loss-window and recovery-time percentiles plus
//     the per-phase RTO budget → BENCH_recovery.json
//   - -path fleet: fleet mode — per-tenant goroutine/heap footprint and
//     hot-tenant commit quantiles under a dumping antagonist, swept over
//     1/10/100/1000 tenants in one process → BENCH_fleet.json
//
// Usage:
//
//	ginja-benchjson [-path datapath|commit|recovery|fleet] [-out FILE] [-parallel 5] [-smoke]
//
// All latencies are virtual time on the simulated clock, so the numbers
// are exact and machine-independent; only the allocation profiles run on
// the real clock (they count allocations, not time). -smoke runs a
// smaller scenario and prints to stdout without writing a file (used by
// `make verify` as a cheap end-to-end check).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/ginja-dr/ginja/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ginja-benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ginja-benchjson", flag.ContinueOnError)
	path := fs.String("path", "datapath", "which path to benchmark: datapath, commit, recovery or fleet")
	out := fs.String("out", "", "output file (default BENCH_<path>.json)")
	parallel := fs.Int("parallel", 5, "datapath only: parallelism of the parallel run (serial run is always 1)")
	smoke := fs.Bool("smoke", false, "small scenario, print to stdout, write no file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		res        any
		defaultOut string
		err        error
	)
	switch *path {
	case "datapath":
		defaultOut = "BENCH_datapath.json"
		opts := experiments.DatapathOptions{Parallel: *parallel}
		if *smoke {
			opts.Rows = 60
			opts.MaxObjectSize = 8 << 10
		}
		var r *experiments.DatapathResult
		if r, err = experiments.RunDatapath(opts); err != nil {
			return err
		}
		fmt.Printf("dump upload: %8.1f ms serial -> %8.1f ms at parallelism %d (%.2fx, %d parts)\n",
			r.Serial.DumpUploadMs, r.Parallel.DumpUploadMs, r.Parallel.Parallelism,
			r.DumpSpeedup, r.Parallel.DumpParts)
		fmt.Printf("recovery:    %8.1f ms serial -> %8.1f ms at parallelism %d (%.2fx, %d objects)\n",
			r.Serial.RecoveryMs, r.Parallel.RecoveryMs, r.Parallel.Parallelism,
			r.RecoverySpeedup, r.Parallel.RecoveryObjects)
		fmt.Printf("sealer:      %.1f allocs/op seal, %.1f allocs/op open (compressed path)\n",
			r.SealAllocsPerOp, r.OpenAllocsPerOp)
		s := r.Streaming
		fmt.Printf("streaming:   peak %d B resident of %d B bound (db %d B, %d parts)\n",
			s.PeakStreamBytes, s.BoundBytes, s.LocalDBBytes, s.DumpParts)
		// The streamed data path's contract is enforced here so that
		// `make verify` (bench-data-smoke) fails the build when the memory
		// bound regresses.
		if !s.WithinBound || s.DumpParts < 2 || s.QueueBytesAfter != 0 {
			return fmt.Errorf(
				"streaming data path regressed: within_bound=%v (peak=%d bound=%d) parts=%d queue_bytes_after=%d",
				s.WithinBound, s.PeakStreamBytes, s.BoundBytes, s.DumpParts, s.QueueBytesAfter)
		}
		d := r.DeltaCheckpoint
		fmt.Printf("delta ckpt:  %d B delta vs %d B full re-dump (%.1f%%, %d/%d rows dirty); gate %d B vs %d B (%.1f%%)\n",
			d.DeltaBytes, d.FullRedumpBytes, 100*d.BytesRatio, d.DirtyRows, d.Rows,
			d.GateBytesDelta, d.GateBytesFull, 100*d.GateRatio)
		fmt.Printf("             chain(%d) recovery %.1f ms vs base-only %.1f ms (%.2fx); saved %d B; identical=%v\n",
			d.ChainLen, d.ChainRecoveryMs, d.BaseRecoveryMs, d.RecoveryRatio, d.CheckpointBytesSaved, d.RecoveredIdentical)
		// The delta checkpoints' contract: a 1 %-dirty crossing ships and
		// gates a small fraction of a full re-dump, recovering through a
		// maximum-length chain stays within 2x of a fresh base, the two
		// formats materialize byte-identical machines, and the streaming
		// memory bound is unchanged.
		if d.BytesRatio > 0.15 || d.GateRatio > 0.15 || d.ChainLen < 1 ||
			d.RecoveryRatio > 2 || !d.RecoveredIdentical || !d.WithinBound {
			return fmt.Errorf(
				"delta checkpoints regressed: bytes_ratio=%.3f gate_ratio=%.3f (want <= 0.15) chain_len=%d recovery_ratio=%.2f (want <= 2) identical=%v within_bound=%v (peak=%d bound=%d)",
				d.BytesRatio, d.GateRatio, d.ChainLen, d.RecoveryRatio,
				d.RecoveredIdentical, d.WithinBound, d.PeakStreamBytes, d.BoundBytes)
		}
		res = r
	case "recovery":
		defaultOut = "BENCH_recovery.json"
		opts := experiments.RecoveryBenchOptions{}
		if *smoke {
			opts.Seeds = 3
		}
		var r *experiments.RecoveryBenchResult
		if r, err = experiments.RunRecoveryBench(opts); err != nil {
			return err
		}
		anyLoss := false
		for _, sc := range r.Scenarios {
			fmt.Printf("%-18s RPO p50/p99 %7.1f/%7.1f ms  RTO p50/p99 %7.1f/%7.1f ms  (%d runs, %.0f objects, %.1f KiB)\n",
				sc.Name+":", sc.RPOp50Ms, sc.RPOp99Ms, sc.RTOp50Ms, sc.RTOp99Ms,
				sc.Runs, sc.MeanObjects, sc.MeanFetchedKB)
			fmt.Printf("%-18s phases list %.1f, view %.1f, fetch %.1f, decode %.1f, apply %.1f, verify %.1f, total %.1f ms\n",
				"", sc.Phases.List, sc.Phases.View, sc.Phases.Fetch,
				sc.Phases.Decode, sc.Phases.Apply, sc.Phases.Verify, sc.Phases.Total)
			// The RTO budget must be a real measurement: recovery happened
			// (total > 0), fetched actual objects, and every run completed.
			if sc.Runs != r.Seeds || sc.RTOp50Ms <= 0 || sc.Phases.Total <= 0 || sc.MeanObjects <= 0 {
				return fmt.Errorf("recovery bench regressed: scenario %s runs=%d rto_p50=%.3f total=%.3f objects=%.1f",
					sc.Name, sc.Runs, sc.RTOp50Ms, sc.Phases.Total, sc.MeanObjects)
			}
			if sc.RPOMaxMs > 0 {
				anyLoss = true
			}
		}
		// The disasters are scripted to strike with work in flight; a sweep
		// where no run ever had a non-zero data-loss window means the RPO
		// watermark (or the schedules) broke.
		if !anyLoss {
			return fmt.Errorf("recovery bench regressed: no scenario measured a non-zero RPO")
		}
		w := r.WarmStandby
		fmt.Printf("%-18s cold RTO p50/p99 %7.1f/%7.1f ms -> warm promote %7.1f/%7.1f ms (%.1fx, lag %.0f ms, %.0f vs %.0f objects)\n",
			"warm-standby:", w.ColdRTOp50Ms, w.ColdRTOp99Ms, w.WarmRTOp50Ms, w.WarmRTOp99Ms,
			w.Speedup, w.MeanFollowerLagMs, w.MeanColdObjects, w.MeanWarmObjects)
		fmt.Printf("%-18s promote-during-outage drill RTO %.1f ms (rides a 1 s provider outage)\n",
			"", w.OutageDrillRTOMs)
		// The warm standby's reason to exist: promoting the tailed replica
		// must beat re-downloading the database by a wide margin. Enforced
		// here so `make verify` fails the build when the follower regresses
		// to cold-restore behaviour.
		if w.Runs != r.Seeds || w.WarmRTOp50Ms <= 0 || w.Speedup < 5 {
			return fmt.Errorf("warm standby regressed: runs=%d warm_rto_p50=%.3f speedup=%.2f (want >= 5x over cold)",
				w.Runs, w.WarmRTOp50Ms, w.Speedup)
		}
		res = r
	case "commit":
		defaultOut = "BENCH_commitpath.json"
		opts := experiments.CommitpathOptions{}
		if *smoke {
			opts.Commits = 150
			opts.AdaptiveCommits = 896    // 7 batches of 128, 28 of 32, 112 of 8
			opts.ThroughputCommits = 8192 // shorter runs don't outlive controller convergence
			opts.PipelineCommits = 512    // fewer batches would be startup-dominated
		}
		var r *experiments.CommitpathResult
		if r, err = experiments.RunCommitpath(opts); err != nil {
			return err
		}
		fmt.Printf("commit path: %7.0f commits/s unpacked -> %7.0f commits/s packed (%.2fx)\n",
			r.Unpacked.CommitsPerSec, r.Packed.CommitsPerSec, r.ThroughputSpeedup)
		fmt.Printf("PUTs/batch:  %7.1f unpacked -> %7.1f packed (%.1fx fewer PUTs)\n",
			r.Unpacked.PutsPerBatch, r.Packed.PutsPerBatch, r.PutReduction)
		fmt.Printf("batch p50/p99: %.0f/%.0f ms unpacked -> %.0f/%.0f ms packed\n",
			r.Unpacked.P50BatchMs, r.Unpacked.P99BatchMs, r.Packed.P50BatchMs, r.Packed.P99BatchMs)
		fmt.Printf("cost model:  $%.3f/day unpacked -> $%.3f/day packed; %.2f allocs/commit\n",
			r.Unpacked.DollarsPerDay, r.Packed.DollarsPerDay, r.AllocsPerCommit)
		for _, reg := range r.AdaptiveRegimes {
			a := reg.Adaptive
			fmt.Printf("adaptive rtt=%3.0fms ceiling=$%.2f/day: B->%d TB->%.0fms p50 %.0f ms (best feasible fixed %.0f ms), steady $%.3f/day\n",
				reg.RTTMs, reg.CeilingPerDay, a.EffectiveBatch, a.EffectiveTimeoutMs,
				a.P50BatchMs, reg.BestFeasibleFixedP50Ms, a.SteadyDollarsPerDay)
			// The controller's contract, enforced per regime: the solved
			// knobs stay inside [1, Safety], the steady-state spend fits the
			// ceiling, and the median commit latency is within 10% of the
			// best fixed configuration that also fits the ceiling.
			if a.EffectiveBatch < 1 || a.EffectiveBatch > 1024 {
				return fmt.Errorf("adaptive regime rtt=%.0fms: effective batch %d outside [1, 1024]",
					reg.RTTMs, a.EffectiveBatch)
			}
			if a.SteadyDollarsPerDay > reg.CeilingPerDay*1.001 {
				return fmt.Errorf("adaptive regime rtt=%.0fms: steady spend $%.3f/day exceeds ceiling $%.3f/day",
					reg.RTTMs, a.SteadyDollarsPerDay, reg.CeilingPerDay)
			}
			if reg.BestFeasibleFixedP50Ms > 0 && a.P50BatchMs > 1.1*reg.BestFeasibleFixedP50Ms {
				return fmt.Errorf("adaptive regime rtt=%.0fms ceiling=$%.2f: p50 %.1f ms worse than 1.1x best feasible fixed %.1f ms",
					reg.RTTMs, reg.CeilingPerDay, a.P50BatchMs, reg.BestFeasibleFixedP50Ms)
			}
		}
		tg := r.AdaptiveThroughput
		fmt.Printf("adaptive throughput: %7.0f commits/s default -> %7.0f commits/s adaptive (%.2fx), $%.2f -> $%.2f/day\n",
			tg.FixedDefault.CommitsPerSec, tg.Adaptive.CommitsPerSec, tg.Speedup,
			tg.FixedDefault.DollarsPerDay, tg.Adaptive.DollarsPerDay)
		// The unpaced gate: adaptive must beat the default fixed knobs on
		// throughput at equal-or-lower $/day, or the controller regressed.
		if tg.Adaptive.CommitsPerSec < tg.FixedDefault.CommitsPerSec {
			return fmt.Errorf("adaptive throughput regressed: %.0f commits/s < fixed default %.0f commits/s",
				tg.Adaptive.CommitsPerSec, tg.FixedDefault.CommitsPerSec)
		}
		if tg.Adaptive.DollarsPerDay > tg.FixedDefault.DollarsPerDay {
			return fmt.Errorf("adaptive throughput gate overspends: $%.3f/day > fixed default $%.3f/day",
				tg.Adaptive.DollarsPerDay, tg.FixedDefault.DollarsPerDay)
		}
		pl := r.Pipelined
		fmt.Printf("pipelined uploader: %7.0f commits/s serial -> %7.0f commits/s pipelined (%.2fx at %.0f ms RTT)\n",
			pl.SerialCommitsPerSec, pl.PipelinedCommitsPerSec, pl.Speedup, pl.RTTMs)
		// Overlapping seal with the in-flight PUT must show a real
		// wall-clock win over the serial seal→PUT loop.
		if pl.Speedup < 1.15 {
			return fmt.Errorf("pipelined uploader regressed: %.2fx speedup over serial (want >= 1.15x)", pl.Speedup)
		}
		res = r
	case "fleet":
		defaultOut = "BENCH_fleet.json"
		opts := experiments.FleetBenchOptions{}
		if *smoke {
			opts.Sizes = []int{1, 10, 100}
			opts.Commits = 12
		}
		var r *experiments.FleetBenchResult
		if r, err = experiments.RunFleetBench(opts); err != nil {
			return err
		}
		for _, row := range r.Rows {
			fmt.Printf("fleet %5d tenants: %.2f goroutines, %6.1f KiB heap per tenant; commit p50/p99 %6.1f/%6.1f ms; %d safety misses\n",
				row.Tenants, row.GoroutinesPerTenant, row.HeapBytesPerTenant/1024,
				row.CommitP50Ms, row.CommitP99Ms, row.SafetyDeadlineMisses)
			// The fairness contract: with a dumping antagonist saturating
			// the bulk path at every sweep point, no tenant's Safety-class
			// PUT ever out-waits its TS window in the shared queue.
			if row.SafetyDeadlineMisses != 0 {
				return fmt.Errorf("fleet bench regressed: %d safety deadline misses at %d tenants (want 0)",
					row.SafetyDeadlineMisses, row.Tenants)
			}
			if row.GoroutinesPerTenant <= 0 || row.GoroutinesPerTenant > 12 {
				return fmt.Errorf("fleet bench regressed: %.2f goroutines per tenant at %d tenants (want (0, 12])",
					row.GoroutinesPerTenant, row.Tenants)
			}
		}
		fmt.Printf("fleet gates: p50 ratio at 100 tenants %.2fx of solo; per-tenant growth 10->1000: goroutines %+.1f%%, heap %+.1f%%\n",
			r.P50RatioAt100, 100*r.GoroutineGrowth10To1000, 100*r.HeapGrowth10To1000)
		// Contention gate: a shared fleet must not tax the hot tenant's
		// commit latency beyond 1.5x of running alone.
		if r.P50RatioAt100 > 1.5 {
			return fmt.Errorf("fleet bench regressed: commit p50 at 100 tenants is %.2fx solo (want <= 1.5x)", r.P50RatioAt100)
		}
		// Flat-overhead gate (full sweep only — the smoke sweep has no
		// 1000-tenant row and reports zero growth).
		if r.GoroutineGrowth10To1000 > 0.10 || r.HeapGrowth10To1000 > 0.10 {
			return fmt.Errorf("fleet bench regressed: per-tenant overhead grew 10->1000 tenants: goroutines %+.1f%% heap %+.1f%% (want <= +10%%)",
				100*r.GoroutineGrowth10To1000, 100*r.HeapGrowth10To1000)
		}
		res = r
	default:
		return fmt.Errorf("unknown -path %q (want datapath, commit, recovery or fleet)", *path)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')

	if *smoke {
		os.Stdout.Write(data)
		return nil
	}
	file := *out
	if file == "" {
		file = defaultOut
	}
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", file)
	return nil
}
