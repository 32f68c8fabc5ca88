package experiments

import (
	"fmt"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/costmodel"
)

// This file is the ablation for the adaptive batch controller: the same
// paced commit workload replayed across WAN round-trip and price regimes,
// once per fixed (B, TB) baseline and once with AdaptiveBatching solving
// the knobs online under a $/day ceiling. The claim under test is the
// controller's contract — commit latency no worse than the best fixed
// configuration an operator could have picked for that regime (within
// 10%), while never spending past the ceiling.

// AdaptiveRun is one measured (workload, knob policy) configuration.
type AdaptiveRun struct {
	Adaptive bool `json:"adaptive"`
	// Batch is the configured B — the fixed knob for baselines, the
	// initial value for adaptive runs.
	Batch         int     `json:"batch"`
	Commits       int     `json:"commits"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	// P50BatchMs is the median oldest-submit→durable-release latency —
	// the comparison number (the tail of a paced run is dominated by the
	// final partial batch waiting out TB, which says nothing about the
	// knobs).
	P50BatchMs float64 `json:"p50_batch_ms"`
	WALObjects int64   `json:"wal_objects"`
	// CommitsPerPut is the realized effective B of the §7.1 cost model.
	CommitsPerPut float64 `json:"commits_per_put"`
	// DollarsPerDay evaluates the costmodel at the workload's commit rate
	// with the realized CommitsPerPut; Feasible is the ≤-ceiling verdict
	// for the regime (always judged on this measured number, so a fixed
	// baseline that quietly overspends is disqualified, not compared).
	DollarsPerDay float64 `json:"dollars_per_day"`
	Feasible      bool    `json:"feasible"`
	// SteadyDollarsPerDay prices the final effective batch at the same
	// rate — where the controller would settle if the workload ran on.
	SteadyDollarsPerDay float64 `json:"steady_dollars_per_day"`
	// EffectiveBatch/EffectiveTimeoutMs/FitBaseMs expose the controller
	// state at the end of the run (= the configured knobs for baselines).
	EffectiveBatch     int     `json:"effective_batch"`
	EffectiveTimeoutMs float64 `json:"effective_timeout_ms"`
	FitBaseMs          float64 `json:"fit_base_ms"`
}

// AdaptiveRegime is one (RTT, price ceiling) cell of the sweep.
type AdaptiveRegime struct {
	RTTMs         float64 `json:"rtt_ms"`
	CeilingPerDay float64 `json:"ceiling_per_day"`
	// RatePerSec is the paced workload's commit arrival rate.
	RatePerSec float64       `json:"rate_per_sec"`
	Fixed      []AdaptiveRun `json:"fixed"`
	Adaptive   AdaptiveRun   `json:"adaptive"`
	// BestFeasibleFixedP50Ms is the best median latency among fixed
	// baselines whose measured spend fits the ceiling; 0 when no fixed
	// baseline is feasible (the controller is then the only option).
	BestFeasibleFixedP50Ms float64 `json:"best_feasible_fixed_p50_ms"`
}

// ThroughputGate is the unpaced head-to-head at 40 ms RTT: the default
// fixed knobs versus the controller, submitting as fast as the pipeline
// accepts. The verify gate requires adaptive to win on throughput at
// equal-or-lower $/day.
type ThroughputGate struct {
	FixedDefault AdaptiveRun `json:"fixed_default"`
	Adaptive     AdaptiveRun `json:"adaptive"`
	// Speedup is adaptive/fixed commits-per-second.
	Speedup float64 `json:"speedup"`
}

// fineLatencyBounds returns commit-latency histogram buckets fine enough
// for a meaningful p50 (5 ms steps to 1 s, 25 ms steps to 5 s).
func fineLatencyBounds() []float64 {
	var b []float64
	for v := 0.005; v < 1.0; v += 0.005 {
		b = append(b, v)
	}
	for v := 1.0; v <= 5.0; v += 0.025 {
		b = append(b, v)
	}
	return b
}

// adaptiveDollarsPerDay prices the paper's evaluation deployment at the
// given commit rate with the given effective batch.
func adaptiveDollarsPerDay(ratePerSec, effectiveBatch float64) float64 {
	if effectiveBatch < 1 {
		effectiveBatch = 1
	}
	dep := costmodel.PaperEvaluationDeployment()
	dep.UpdatesPerMinute = ratePerSec * 60
	dep.Batch = effectiveBatch
	return costmodel.Monthly(dep, cloud.AmazonS3May2017()).Total() / 30
}

// measureAdaptive drives the paced (or unpaced) commit workload through
// the commit driver and reports latency, throughput, realized PUT packing
// and the resulting spend. Safety is wide open (1024) so the knobs, not
// the queue bound, decide the latency.
func measureAdaptive(d commitDrive) (AdaptiveRun, error) {
	run := AdaptiveRun{Adaptive: d.adaptive, Batch: d.batch, Commits: d.commits}
	d.safety = 1024
	d.fineBuckets = true
	out, err := driveCommits(d)
	if err != nil {
		return run, err
	}
	run.CommitsPerSec = out.commitsPerSec
	run.P50BatchMs = out.p50BatchMs
	run.WALObjects = out.stats.WALObjectsUploaded
	run.CommitsPerPut = out.commitsPerPut
	run.EffectiveBatch = out.stats.EffectiveBatch
	run.EffectiveTimeoutMs = millis(out.stats.EffectiveBatchTimeout)
	run.FitBaseMs = millis(out.stats.FittedPutLatency)

	// Spend is judged at the workload's arrival rate: the paced rate when
	// one was imposed, the measured rate otherwise.
	rate := run.CommitsPerSec
	if d.pace > 0 {
		rate = float64(time.Second) / float64(d.pace)
	}
	run.DollarsPerDay = adaptiveDollarsPerDay(rate, run.CommitsPerPut)
	run.SteadyDollarsPerDay = adaptiveDollarsPerDay(rate, float64(run.EffectiveBatch))
	run.Feasible = d.ceiling == 0 || run.DollarsPerDay <= d.ceiling
	return run, nil
}

// runAdaptiveRegimes sweeps the paced workload across RTT and price
// regimes. The fixed baselines use a deliberately long TB so their
// batches fill (a short TB would cut partial batches and make B
// irrelevant under pacing); the adaptive run starts from the default B
// with the same TB as its worst-case cap.
func runAdaptiveRegimes(commits int) ([]AdaptiveRegime, error) {
	const (
		pace    = 5 * time.Millisecond // 200 commits/s
		payload = 256
		capTB   = 10 * time.Second
	)
	fixedBatches := []int{8, 32, 128}
	cells := []struct {
		rtt     time.Duration
		ceiling float64
	}{
		{5 * time.Millisecond, 0.8},   // LAN-like object store
		{40 * time.Millisecond, 0.8},  // the paper's S3 WAN
		{150 * time.Millisecond, 0.8}, // cross-continent
		{40 * time.Millisecond, 0.25}, // tight budget: cost floor binds hard
		{40 * time.Millisecond, 2.0},  // loose budget: latency term decides
	}
	var regimes []AdaptiveRegime
	for _, cell := range cells {
		reg := AdaptiveRegime{
			RTTMs:         millis(cell.rtt),
			CeilingPerDay: cell.ceiling,
			RatePerSec:    float64(time.Second) / float64(pace),
		}
		for _, b := range fixedBatches {
			run, err := measureAdaptive(commitDrive{
				rtt: cell.rtt, ceiling: cell.ceiling, commits: commits,
				payloadBytes: payload, batch: b, batchTimeout: capTB, pace: pace,
			})
			if err != nil {
				return nil, fmt.Errorf("fixed B=%d rtt=%v: %w", b, cell.rtt, err)
			}
			reg.Fixed = append(reg.Fixed, run)
			if run.Feasible && (reg.BestFeasibleFixedP50Ms == 0 || run.P50BatchMs < reg.BestFeasibleFixedP50Ms) {
				reg.BestFeasibleFixedP50Ms = run.P50BatchMs
			}
		}
		adaptive, err := measureAdaptive(commitDrive{
			rtt: cell.rtt, ceiling: cell.ceiling, commits: commits,
			payloadBytes: payload, batch: core.DefaultParams().Batch,
			batchTimeout: capTB, pace: pace, adaptive: true,
		})
		if err != nil {
			return nil, fmt.Errorf("adaptive rtt=%v ceiling=%.2f: %w", cell.rtt, cell.ceiling, err)
		}
		reg.Adaptive = adaptive
		regimes = append(regimes, reg)
	}
	return regimes, nil
}

// runThroughputGate measures the unpaced head-to-head the verify gate
// enforces: controller versus default fixed knobs at 40 ms RTT. The
// unpaced workload runs four orders of magnitude hotter than the paper's
// 100 updates/min, so the ceiling scales with it ($20/day ≈ the paper's
// per-update spend at this rate); what matters is that a ceiling is in
// force and the controller still beats the default knobs under it. A
// one-dollar ceiling at this rate would force B past Safety, clamp to
// S and bound the whole queue to one batch in flight — the controller
// honouring the Safety contract, not a throughput result.
func runThroughputGate(commits int) (ThroughputGate, error) {
	var gate ThroughputGate
	const rtt = 40 * time.Millisecond
	fixed, err := measureAdaptive(commitDrive{
		rtt: rtt, commits: commits, payloadBytes: 256,
		batch: core.DefaultParams().Batch, batchTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		return gate, fmt.Errorf("fixed-default: %w", err)
	}
	adaptive, err := measureAdaptive(commitDrive{
		rtt: rtt, ceiling: 20.0, commits: commits, payloadBytes: 256,
		batch: core.DefaultParams().Batch, batchTimeout: 50 * time.Millisecond,
		adaptive: true,
	})
	if err != nil {
		return gate, fmt.Errorf("adaptive: %w", err)
	}
	gate.FixedDefault = fixed
	gate.Adaptive = adaptive
	if fixed.CommitsPerSec > 0 {
		gate.Speedup = adaptive.CommitsPerSec / fixed.CommitsPerSec
	}
	return gate, nil
}
