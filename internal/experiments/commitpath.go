package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/costmodel"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/sim"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// This file measures the commit path — the pipeline that every database
// update crosses — before and after WAL batch packing. The workload is
// the paper's worst case for request-count billing: B small commits
// scattered across WAL offsets, each of which used to become its own
// sealed object and its own ~40 ms PUT. With packing the whole batch
// rides one object, so both the virtual-time throughput and the
// costmodel's CWAL_PUT term improve by the measured commits-per-PUT
// factor. Everything latency-shaped runs on the simulated WAN in virtual
// time (deterministic, machine-independent); only the allocation profile
// is measured on the real clock, where the runtime's counters live.

// CommitpathOptions configures the packed-vs-unpacked measurement.
type CommitpathOptions struct {
	// Commits is how many small updates the workload submits.
	Commits int
	// Batch is Ginja's B (Safety is fixed at 2×B so throughput is bound
	// by upload round trips, not by an over-generous queue).
	Batch int
	// PayloadBytes sizes each commit's WAL write.
	PayloadBytes int
	// AdaptiveCommits sizes the paced adaptive-vs-fixed regime sweep.
	// The default is divisible by every fixed baseline B so those runs
	// end on whole batches.
	AdaptiveCommits int
	// ThroughputCommits sizes the unpaced adaptive-vs-default gate.
	ThroughputCommits int
}

func (o CommitpathOptions) withDefaults() CommitpathOptions {
	if o.Commits == 0 {
		o.Commits = 600
	}
	if o.Batch == 0 {
		o.Batch = 50
	}
	if o.PayloadBytes == 0 {
		o.PayloadBytes = 256
	}
	if o.AdaptiveCommits == 0 {
		o.AdaptiveCommits = 1664 // 13 batches of 128, 52 of 32, 208 of 8
	}
	if o.ThroughputCommits == 0 {
		o.ThroughputCommits = 16384
	}
	return o
}

// CommitpathRun is one measured configuration.
type CommitpathRun struct {
	Packing bool `json:"packing"`
	Commits int  `json:"commits"`
	// VirtualMs is the virtual time from the first submit until every
	// commit was durable in the simulated cloud.
	VirtualMs float64 `json:"virtual_ms"`
	// CommitsPerSec is commit throughput in virtual time.
	CommitsPerSec float64 `json:"commits_per_sec"`
	// P50BatchMs/P99BatchMs are commit-batch latency quantiles: oldest
	// submit → durable release (the paper's user-visible commit delay).
	P50BatchMs float64 `json:"p50_batch_ms"`
	P99BatchMs float64 `json:"p99_batch_ms"`
	// Batches and WALObjects come from Stats; PutsPerBatch is their ratio
	// (the acceptance number: ≤ ceil(batch bytes / MaxObjectSize) packed).
	Batches      int64   `json:"batches"`
	WALObjects   int64   `json:"wal_objects"`
	PutsPerBatch float64 `json:"puts_per_batch"`
	// CommitsPerPut is the effective B of the §7.1 cost model: how many
	// updates share one billable PUT.
	CommitsPerPut float64 `json:"commits_per_put"`
	// DollarsPerDay evaluates the costmodel for the paper's evaluation
	// deployment with the measured CommitsPerPut as the effective batch.
	DollarsPerDay float64 `json:"dollars_per_day"`
}

// CommitpathResult is the machine-readable content of
// BENCH_commitpath.json.
type CommitpathResult struct {
	Unpacked CommitpathRun `json:"unpacked"`
	Packed   CommitpathRun `json:"packed"`
	// ThroughputSpeedup is packed/unpacked commits-per-second.
	ThroughputSpeedup float64 `json:"throughput_speedup"`
	// PutReduction is unpacked/packed PUTs for the same workload.
	PutReduction float64 `json:"put_reduction"`
	// AllocsPerCommit is the steady-state submit→upload allocation count
	// per commit on the packed hot path (pooled submit copies, reused
	// batch scratch, pooled object write lists), measured with the
	// runtime's allocation counters against an in-memory store.
	AllocsPerCommit float64 `json:"allocs_per_commit"`
	// AdaptiveRegimes is the paced adaptive-vs-fixed sweep across WAN
	// round-trip and price-ceiling regimes.
	AdaptiveRegimes []AdaptiveRegime `json:"adaptive_regimes"`
	// AdaptiveThroughput is the unpaced controller-vs-default gate.
	AdaptiveThroughput ThroughputGate `json:"adaptive_throughput"`
}

// commitDrive parameterizes one run of the commit driver.
type commitDrive struct {
	rtt          time.Duration
	commits      int
	payloadBytes int
	batch        int
	safety       int
	batchTimeout time.Duration
	maxObject    int64         // Params.MaxObjectSize; 0 = the default
	pace         time.Duration // 0 = submit as fast as the pipeline accepts
	adaptive     bool          // AdaptiveBatching under ceiling
	ceiling      float64
	fineBuckets  bool // 5 ms latency buckets instead of the registry's coarse default
}

// commitOutcome is what one driven run measured, all in virtual time.
type commitOutcome struct {
	elapsed       time.Duration // first submit → every commit durable
	commitsPerSec float64
	commitsPerPut float64 // the effective B of the §7.1 cost model
	// Batch-latency quantiles: oldest submit → durable release (the
	// paper's user-visible commit delay).
	p50BatchMs, p99BatchMs float64
	stats                  core.Stats
}

// driveCommits is the one commit-path driver: small writes scattered
// across WAL offsets (8 KiB stride, so aggregation cannot coalesce and
// each commit is its own write-run — the case packing exists for) through
// the full stack (intercepted FS → pipeline → simulated WAN) on a rig.
func driveCommits(d commitDrive) (commitOutcome, error) {
	var out commitOutcome
	rig := sim.NewRig(sim.WAN(d.rtt, 0), 1)

	// The registry's first registration wins, so registering the
	// commit-latency histogram before core.New picks its buckets.
	reg := obs.NewRegistry()
	var bounds []float64
	if d.fineBuckets {
		bounds = fineLatencyBounds()
	}
	batchLatency := reg.Histogram("ginja_commit_batch_seconds",
		"End-to-end commit batch latency: oldest submit to durable release.", nil, bounds)

	params := rig.Params()
	params.Batch = d.batch
	params.Safety = d.safety
	params.BatchTimeout = d.batchTimeout
	params.SafetyTimeout = 2 * time.Minute
	params.MaxObjectSize = d.maxObject
	params.AdaptiveBatching = d.adaptive
	params.CostCeilingPerDay = d.ceiling
	params.Metrics = reg

	g, err := rig.Boot(nil, params)
	if err != nil {
		return out, err
	}
	fsys := g.FS()
	payload := make([]byte, d.payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	t0 := rig.Clock.Now()
	for i := 0; i < d.commits; i++ {
		off := int64(i%4096) * 8192
		if err := vfs.WriteAt(fsys, "pg_xlog/000000010000000000000001", off, payload); err != nil {
			return out, fmt.Errorf("commit %d: %w", i, err)
		}
		if d.pace > 0 {
			rig.Clock.Sleep(d.pace)
		}
	}
	if !g.Flush(10 * time.Minute) {
		return out, fmt.Errorf("flush did not drain")
	}
	out.elapsed = rig.Clock.Since(t0)
	if out.elapsed > 0 {
		out.commitsPerSec = float64(d.commits) / out.elapsed.Seconds()
	}
	out.stats = g.Stats()
	if n := out.stats.WALObjectsUploaded; n > 0 {
		out.commitsPerPut = float64(d.commits) / float64(n)
	}
	out.p50BatchMs = batchLatency.Quantile(0.50) * 1000
	out.p99BatchMs = batchLatency.Quantile(0.99) * 1000
	if err := g.Close(); err != nil {
		return out, fmt.Errorf("close: %w", err)
	}
	return out, nil
}

// measureCommitpath drives Commits small scattered writes packed or
// unpacked and reports throughput, latency quantiles and PUT accounting.
// The unpacked baseline caps objects at one write's size, so each write
// of a batch becomes its own object.
func measureCommitpath(opts CommitpathOptions, packing bool) (CommitpathRun, error) {
	run := CommitpathRun{Packing: packing, Commits: opts.Commits}
	// Safety is 2×B so throughput is bound by upload round trips, not by
	// an over-generous queue.
	d := commitDrive{
		rtt: 40 * time.Millisecond, commits: opts.Commits, payloadBytes: opts.PayloadBytes,
		batch: opts.Batch, safety: 2 * opts.Batch, batchTimeout: 50 * time.Millisecond,
	}
	if !packing {
		d.maxObject = int64(opts.PayloadBytes)
	}
	out, err := driveCommits(d)
	if err != nil {
		return run, err
	}
	run.VirtualMs = millis(out.elapsed)
	run.CommitsPerSec = out.commitsPerSec
	run.P50BatchMs, run.P99BatchMs = out.p50BatchMs, out.p99BatchMs
	run.Batches = out.stats.Batches
	run.WALObjects = out.stats.WALObjectsUploaded
	if run.Batches > 0 {
		run.PutsPerBatch = float64(run.WALObjects) / float64(run.Batches)
	}
	run.CommitsPerPut = out.commitsPerPut

	// The §7.1 cost model with the measured effective batch: CWAL_PUT is
	// the term packing attacks (W × month / B_effective × CPUT).
	dep := costmodel.PaperEvaluationDeployment()
	dep.Batch = run.CommitsPerPut
	if dep.Batch < 1 {
		dep.Batch = 1
	}
	run.DollarsPerDay = costmodel.Monthly(dep, cloud.AmazonS3May2017()).Total() / 30
	return run, nil
}

// commitAllocProfile measures steady-state allocations per commit on the
// packed hot path using the runtime's counters (works outside `go test`;
// BenchmarkCommitPath is the in-harness twin). It runs on the real clock
// against an in-memory store so nothing but the commit path allocates.
func commitAllocProfile(opts CommitpathOptions) (float64, error) {
	params := core.DefaultParams()
	params.Batch = opts.Batch
	params.Safety = 20 * opts.Batch
	params.BatchTimeout = 5 * time.Millisecond
	g, err := core.New(vfs.NewMemFS(), cloud.NewMemStore(), dbevent.NewPGProcessor(), params)
	if err != nil {
		return 0, err
	}
	if err := g.Boot(context.Background()); err != nil {
		return 0, err
	}
	defer g.Close()
	fsys := g.FS()
	// Non-zero, as WAL records are: an all-zero payload ships as a zero
	// fill and would time only that path.
	payload := make([]byte, opts.PayloadBytes)
	for i := range payload {
		payload[i] = byte(1 + i%255)
	}
	// Hold one open WAL segment and pre-extend it, as a DBMS does: the
	// measured loop then crosses only interception → classify → submit →
	// pipeline, not per-call open/close or file growth.
	const segment = "pg_xlog/000000010000000000000001"
	if err := fsys.MkdirAll("pg_xlog", 0o755); err != nil {
		return 0, err
	}
	f, err := fsys.OpenFile(segment, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	commit := func(i int) error {
		_, err := f.WriteAt(payload, int64(i%512)*8192)
		return err
	}
	if err := commit(512); err != nil { // pre-extend past the highest offset
		return 0, err
	}
	for i := 0; i < 500; i++ { // warm the pools and grow the scratch
		if err := commit(i); err != nil {
			return 0, err
		}
	}
	if !g.Flush(30 * time.Second) {
		return 0, fmt.Errorf("warm-up flush did not drain")
	}
	// The first profile after the warm-up still reads one of two levels,
	// about 0.37 or 0.5 allocations per commit, and the ones after it
	// about 0.12: the median of five is the steady state.
	const iters, profiles = 4000, 5
	perCommit := make([]float64, profiles)
	for k := range perCommit {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			if err := commit(i); err != nil {
				return 0, err
			}
		}
		if !g.Flush(30 * time.Second) {
			return 0, fmt.Errorf("flush did not drain")
		}
		runtime.ReadMemStats(&after)
		perCommit[k] = float64(after.Mallocs-before.Mallocs) / iters
	}
	slices.Sort(perCommit)
	return perCommit[profiles/2], nil
}

// RunCommitpath measures the unpacked baseline and the packed commit path
// on identical deterministic scenarios and reports the speedups.
func RunCommitpath(opts CommitpathOptions) (*CommitpathResult, error) {
	opts = opts.withDefaults()
	unpacked, err := measureCommitpath(opts, false)
	if err != nil {
		return nil, fmt.Errorf("unpacked run: %w", err)
	}
	packed, err := measureCommitpath(opts, true)
	if err != nil {
		return nil, fmt.Errorf("packed run: %w", err)
	}
	res := &CommitpathResult{Unpacked: unpacked, Packed: packed}
	if unpacked.CommitsPerSec > 0 {
		res.ThroughputSpeedup = packed.CommitsPerSec / unpacked.CommitsPerSec
	}
	if packed.WALObjects > 0 {
		res.PutReduction = float64(unpacked.WALObjects) / float64(packed.WALObjects)
	}
	res.AllocsPerCommit, err = commitAllocProfile(opts)
	if err != nil {
		return nil, err
	}
	if res.AdaptiveRegimes, err = runAdaptiveRegimes(opts.AdaptiveCommits); err != nil {
		return nil, fmt.Errorf("adaptive regimes: %w", err)
	}
	if res.AdaptiveThroughput, err = runThroughputGate(opts.ThroughputCommits); err != nil {
		return nil, fmt.Errorf("adaptive throughput gate: %w", err)
	}
	return res, nil
}

// Fprint renders the result as the human-readable summary `ginja-bench
// json -path commit` prints above the JSON.
func (r *CommitpathResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "commit path: %7.0f commits/s unpacked -> %7.0f commits/s packed (%.2fx)\n",
		r.Unpacked.CommitsPerSec, r.Packed.CommitsPerSec, r.ThroughputSpeedup)
	fmt.Fprintf(w, "PUTs/batch:  %7.1f unpacked -> %7.1f packed (%.1fx fewer PUTs)\n",
		r.Unpacked.PutsPerBatch, r.Packed.PutsPerBatch, r.PutReduction)
	fmt.Fprintf(w, "batch p50/p99: %.0f/%.0f ms unpacked -> %.0f/%.0f ms packed\n",
		r.Unpacked.P50BatchMs, r.Unpacked.P99BatchMs, r.Packed.P50BatchMs, r.Packed.P99BatchMs)
	fmt.Fprintf(w, "cost model:  $%.3f/day unpacked -> $%.3f/day packed; %.2f allocs/commit\n",
		r.Unpacked.DollarsPerDay, r.Packed.DollarsPerDay, r.AllocsPerCommit)
	for _, reg := range r.AdaptiveRegimes {
		a := reg.Adaptive
		fmt.Fprintf(w, "adaptive rtt=%3.0fms ceiling=$%.2f/day: B->%d TB->%.0fms p50 %.0f ms (best feasible fixed %.0f ms), steady $%.3f/day\n",
			reg.RTTMs, reg.CeilingPerDay, a.EffectiveBatch, a.EffectiveTimeoutMs,
			a.P50BatchMs, reg.BestFeasibleFixedP50Ms, a.SteadyDollarsPerDay)
	}
	tg := r.AdaptiveThroughput
	fmt.Fprintf(w, "adaptive throughput: %7.0f commits/s default -> %7.0f commits/s adaptive (%.2fx), $%.2f -> $%.2f/day\n",
		tg.FixedDefault.CommitsPerSec, tg.Adaptive.CommitsPerSec, tg.Speedup,
		tg.FixedDefault.DollarsPerDay, tg.Adaptive.DollarsPerDay)
}

// Check enforces the adaptive controller's contracts. (The packing
// numbers are TestCommitpathPackingSpeedup's, at the full-size scenario.)
func (r *CommitpathResult) Check() error {
	for _, reg := range r.AdaptiveRegimes {
		a := reg.Adaptive
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
	// The unpaced gate: adaptive must beat the default fixed knobs on
	// throughput at equal-or-lower $/day, or the controller regressed.
	tg := r.AdaptiveThroughput
	if tg.Adaptive.CommitsPerSec < tg.FixedDefault.CommitsPerSec {
		return fmt.Errorf("adaptive throughput regressed: %.0f commits/s < fixed default %.0f commits/s",
			tg.Adaptive.CommitsPerSec, tg.FixedDefault.CommitsPerSec)
	}
	if tg.Adaptive.DollarsPerDay > tg.FixedDefault.DollarsPerDay {
		return fmt.Errorf("adaptive throughput gate overspends: $%.3f/day > fixed default $%.3f/day",
			tg.Adaptive.DollarsPerDay, tg.FixedDefault.DollarsPerDay)
	}
	return nil
}
