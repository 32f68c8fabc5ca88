package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/ginja-dr/ginja/internal/sim"
)

// This file measures RPO and RTO — the two quantities Ginja exists to
// bound — instead of deriving them offline from bench math. Each scenario
// replays a deterministic sim fault schedule under the virtual clock: the
// full stack (minidb on the intercepted FS, commit pipeline, checkpointer,
// latency-modelled cloud) runs to a scripted disaster, the primary is cut
// off mid-flight, and a replacement site recovers. The measured data-loss
// window at the instant of the crash (RPO) and the phased recovery time
// (RTO) aggregate across seeds into BENCH_recovery.json. Every run also
// re-checks the consistent-prefix invariant, so the bench doubles as a
// correctness sweep.

// RecoveryBenchOptions configures the RPO/RTO measurement.
type RecoveryBenchOptions struct {
	// Seeds is how many deterministic runs each scenario aggregates.
	Seeds int
}

func (o RecoveryBenchOptions) withDefaults() RecoveryBenchOptions {
	if o.Seeds == 0 {
		o.Seeds = 8
	}
	return o
}

// recoveryScenario is one scripted fault schedule, replayed across seeds.
type recoveryScenario struct {
	name string
	desc string
	cfg  func(seed int64) sim.Config
}

// scenarios returns the three deterministic fault schedules the bench
// replays: a crash with a packed batch mid-flight, a crash while a cloud
// outage has the commit queue backed up, and a crash cutting a multi-part
// dump upload short.
func scenarios() []recoveryScenario {
	return []recoveryScenario{
		{
			name: "crash-mid-batch",
			desc: "primary dies mid-workload with packed WAL batches in flight; no cloud faults",
			cfg: func(seed int64) sim.Config {
				return sim.Config{Seed: seed, Schedule: &sim.Schedule{
					Seed: seed, Steps: 48, CrashAfterStep: 24,
				}}
			},
		},
		{
			name: "outage-crash",
			desc: "cloud outage backs the commit queue up, then the primary dies",
			cfg: func(seed int64) sim.Config {
				return sim.Config{Seed: seed, Schedule: &sim.Schedule{
					Seed: seed, Steps: 48, CrashAfterStep: 30,
					Events: []sim.Event{
						{At: 1 * time.Second, Kind: sim.OutageStart},
						{At: 9 * time.Second, Kind: sim.OutageEnd},
					},
				}}
			},
		},
		{
			name: "crash-during-dump",
			desc: "primary dies with a multi-part dump upload in flight (stranded parts pruned on recovery)",
			cfg: func(seed int64) sim.Config {
				return sim.Config{Seed: seed, Schedule: &sim.Schedule{
					Seed: seed, Steps: 40, CrashAfterStep: 40,
				}, CrashDuringCheckpoint: true}
			},
		},
	}
}

// RecoveryPhaseMs is the mean per-phase RTO budget across a scenario's
// runs, in virtual milliseconds. Fetch is cumulative across the parallel
// prefetchers, so it can exceed Total. The local phases (view build,
// decode, apply, verify) cost nothing on the virtual clock; the
// wall-clock benchmark's core.recovery_* rows measure them.
type RecoveryPhaseMs struct {
	List  float64 `json:"list_ms"`
	Fetch float64 `json:"fetch_ms"`
	Total float64 `json:"total_ms"`
}

// RecoveryBenchScenario aggregates one fault schedule across seeds.
type RecoveryBenchScenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Runs        int    `json:"runs"`
	// RPO quantiles: the measured data-loss window (age of the oldest
	// unacknowledged update, virtual clock) at the instant of the crash.
	RPOp50Ms float64 `json:"rpo_p50_ms"`
	RPOp99Ms float64 `json:"rpo_p99_ms"`
	RPOMaxMs float64 `json:"rpo_max_ms"`
	// RTO quantiles: the replacement site's Recover duration.
	RTOp50Ms float64 `json:"rto_p50_ms"`
	RTOp99Ms float64 `json:"rto_p99_ms"`
	// Phases is the mean per-phase RTO budget.
	Phases RecoveryPhaseMs `json:"phases"`
	// Mean restore-plan shape: cloud objects fetched (DB parts + WAL),
	// the WAL portion, and sealed bytes downloaded.
	MeanObjects    float64 `json:"mean_objects"`
	MeanWALObjects float64 `json:"mean_wal_objects"`
	MeanFetchedKB  float64 `json:"mean_fetched_kb"`
	// MeanCommitsLost is how many committed updates the recovered prefix
	// lost on average (commits − (cut+1)); the paper bounds this by S.
	MeanCommitsLost float64 `json:"mean_commits_lost"`
	// MaxSafety is the largest seed-drawn S among the runs, the bound
	// MeanCommitsLost must respect.
	MaxSafety int `json:"max_safety"`
}

// WarmStandbyBench compares cold disaster recovery against promoting a
// warm standby on the same seeds and workload: the database carries
// FillerRows of untracked bulk so cold recovery pays O(database size)
// while Promote pays O(replication lag). The outage drill (promote
// starting against a dark provider and riding it out) is reported but
// excluded from the speedup, which compares healthy-provider handoffs.
type WarmStandbyBench struct {
	Runs       int `json:"runs"`
	FillerRows int `json:"filler_rows"`
	// Cold vs warm RTO quantiles over the same seeds.
	ColdRTOp50Ms float64 `json:"cold_rto_p50_ms"`
	ColdRTOp99Ms float64 `json:"cold_rto_p99_ms"`
	WarmRTOp50Ms float64 `json:"warm_rto_p50_ms"`
	WarmRTOp99Ms float64 `json:"warm_rto_p99_ms"`
	// Speedup is cold p50 / warm p50 — the warm-standby payoff.
	Speedup float64 `json:"speedup"`
	// MeanFollowerLagMs is the standby's mean replication lag at the
	// instant of the crash; MeanColdObjects / MeanWarmObjects are the mean
	// cloud objects each path fetched during recovery.
	MeanFollowerLagMs float64 `json:"mean_follower_lag_ms"`
	MeanColdObjects   float64 `json:"mean_cold_objects"`
	MeanWarmObjects   float64 `json:"mean_warm_objects"`
	// OutageDrillRTOMs is one promote-during-outage run: the handoff rides
	// a one-virtual-second provider outage out under the retry policy.
	OutageDrillRTOMs float64 `json:"outage_drill_rto_ms"`
}

// RecoveryBenchResult is the machine-readable content of BENCH_recovery.json.
type RecoveryBenchResult struct {
	Seeds       int                     `json:"seeds"`
	Scenarios   []RecoveryBenchScenario `json:"scenarios"`
	WarmStandby *WarmStandbyBench       `json:"warm_standby"`
}

// quantileMs picks an exact sample quantile (nearest-rank on the sorted
// slice) and renders it in milliseconds.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return millis(sorted[idx])
}

// RunRecoveryBench replays every scenario across opts.Seeds deterministic
// seeds and aggregates the measured RPO/RTO distributions.
func RunRecoveryBench(opts RecoveryBenchOptions) (*RecoveryBenchResult, error) {
	opts = opts.withDefaults()
	res := &RecoveryBenchResult{Seeds: opts.Seeds}
	for _, sc := range scenarios() {
		agg := RecoveryBenchScenario{Name: sc.name, Description: sc.desc}
		var (
			rpos, rtos []time.Duration
			ph         RecoveryPhaseMs
			lost       float64
		)
		for seed := int64(1); seed <= int64(opts.Seeds); seed++ {
			r, err := sim.Run(sc.cfg(seed))
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", sc.name, seed, err)
			}
			if r.Recovery == nil {
				return nil, fmt.Errorf("%s seed %d: recovery produced no breakdown", sc.name, seed)
			}
			agg.Runs++
			rpos = append(rpos, r.RPO)
			rtos = append(rtos, r.RTO)
			bd := r.Recovery
			ph.List += millis(bd.List)
			ph.Fetch += millis(bd.Fetch)
			ph.Total += millis(bd.Total)
			agg.MeanObjects += float64(bd.Objects)
			agg.MeanWALObjects += float64(bd.WALObjects)
			agg.MeanFetchedKB += float64(bd.Bytes) / 1024
			lost += float64(r.Commits - (r.Cut + 1))
			if r.Params.Safety > agg.MaxSafety {
				agg.MaxSafety = r.Params.Safety
			}
		}
		n := float64(agg.Runs)
		ph.List /= n
		ph.Fetch /= n
		ph.Total /= n
		agg.Phases = ph
		agg.MeanObjects /= n
		agg.MeanWALObjects /= n
		agg.MeanFetchedKB /= n
		agg.MeanCommitsLost = lost / n
		sort.Slice(rpos, func(i, j int) bool { return rpos[i] < rpos[j] })
		sort.Slice(rtos, func(i, j int) bool { return rtos[i] < rtos[j] })
		agg.RPOp50Ms = quantileMs(rpos, 0.50)
		agg.RPOp99Ms = quantileMs(rpos, 0.99)
		agg.RPOMaxMs = quantileMs(rpos, 1.0)
		agg.RTOp50Ms = quantileMs(rtos, 0.50)
		agg.RTOp99Ms = quantileMs(rtos, 0.99)
		res.Scenarios = append(res.Scenarios, agg)
	}
	warm, err := runWarmStandby(opts)
	if err != nil {
		return nil, err
	}
	res.WarmStandby = warm
	return res, nil
}

// runWarmStandby replays the same seeded crash twice per seed — once
// recovering cold on a fresh machine, once promoting a warm standby that
// tailed the bucket all along — over a database padded with filler bulk.
func runWarmStandby(opts RecoveryBenchOptions) (*WarmStandbyBench, error) {
	const fillerRows = 600
	w := &WarmStandbyBench{FillerRows: fillerRows}
	var coldRTOs, warmRTOs []time.Duration
	for seed := int64(1); seed <= int64(opts.Seeds); seed++ {
		cold, err := sim.Run(sim.Config{Seed: seed, FillerRows: fillerRows})
		if err != nil {
			return nil, fmt.Errorf("warm-standby cold seed %d: %w", seed, err)
		}
		warm, err := sim.Run(sim.Config{Seed: seed, FillerRows: fillerRows, Follower: true})
		if err != nil {
			return nil, fmt.Errorf("warm-standby warm seed %d: %w", seed, err)
		}
		if !warm.Promoted || warm.Recovery == nil || cold.Recovery == nil {
			return nil, fmt.Errorf("warm-standby seed %d: promoted=%v", seed, warm.Promoted)
		}
		w.Runs++
		coldRTOs = append(coldRTOs, cold.RTO)
		warmRTOs = append(warmRTOs, warm.RTO)
		w.MeanFollowerLagMs += millis(warm.FollowerLag)
		w.MeanColdObjects += float64(cold.Recovery.Objects)
		w.MeanWarmObjects += float64(warm.Recovery.Objects)
	}
	n := float64(w.Runs)
	w.MeanFollowerLagMs /= n
	w.MeanColdObjects /= n
	w.MeanWarmObjects /= n
	sort.Slice(coldRTOs, func(i, j int) bool { return coldRTOs[i] < coldRTOs[j] })
	sort.Slice(warmRTOs, func(i, j int) bool { return warmRTOs[i] < warmRTOs[j] })
	w.ColdRTOp50Ms = quantileMs(coldRTOs, 0.50)
	w.ColdRTOp99Ms = quantileMs(coldRTOs, 0.99)
	w.WarmRTOp50Ms = quantileMs(warmRTOs, 0.50)
	w.WarmRTOp99Ms = quantileMs(warmRTOs, 0.99)
	if w.WarmRTOp50Ms > 0 {
		w.Speedup = w.ColdRTOp50Ms / w.WarmRTOp50Ms
	}
	outage, err := sim.Run(sim.Config{Seed: 57, FillerRows: fillerRows, Follower: true, PromoteDuringOutage: true})
	if err != nil {
		return nil, fmt.Errorf("promote-during-outage drill: %w", err)
	}
	w.OutageDrillRTOMs = millis(outage.RTO)
	return w, nil
}

// Fprint renders the result as the human-readable summary `ginja-bench
// json -path recovery` prints above the JSON.
func (r *RecoveryBenchResult) Fprint(out io.Writer) {
	for _, sc := range r.Scenarios {
		fmt.Fprintf(out, "%-18s RPO p50/p99 %7.1f/%7.1f ms  RTO p50/p99 %7.1f/%7.1f ms  (%d runs, %.0f objects, %.1f KiB)\n",
			sc.Name+":", sc.RPOp50Ms, sc.RPOp99Ms, sc.RTOp50Ms, sc.RTOp99Ms,
			sc.Runs, sc.MeanObjects, sc.MeanFetchedKB)
		fmt.Fprintf(out, "%-18s phases list %.1f, fetch %.1f, total %.1f ms\n",
			"", sc.Phases.List, sc.Phases.Fetch, sc.Phases.Total)
	}
	w := r.WarmStandby
	fmt.Fprintf(out, "%-18s cold RTO p50/p99 %7.1f/%7.1f ms -> warm promote %7.1f/%7.1f ms (%.1fx, lag %.0f ms, %.0f vs %.0f objects)\n",
		"warm-standby:", w.ColdRTOp50Ms, w.ColdRTOp99Ms, w.WarmRTOp50Ms, w.WarmRTOp99Ms,
		w.Speedup, w.MeanFollowerLagMs, w.MeanColdObjects, w.MeanWarmObjects)
	fmt.Fprintf(out, "%-18s promote-during-outage drill RTO %.1f ms (rides a 1 s provider outage)\n",
		"", w.OutageDrillRTOMs)
}

// Check enforces the recovery bench's contracts (each run's
// consistent-prefix check already failed RunRecoveryBench itself).
func (r *RecoveryBenchResult) Check() error {
	anyLoss := false
	for _, sc := range r.Scenarios {
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
	// The warm standby's reason to exist: promoting the tailed replica
	// must beat re-downloading the database by a wide margin, or the
	// follower has regressed to cold-restore behaviour.
	w := r.WarmStandby
	if w.Runs != r.Seeds || w.WarmRTOp50Ms <= 0 || w.Speedup < 5 {
		return fmt.Errorf("warm standby regressed: runs=%d warm_rto_p50=%.3f speedup=%.2f (want >= 5x over cold)",
			w.Runs, w.WarmRTOp50Ms, w.Speedup)
	}
	return nil
}
