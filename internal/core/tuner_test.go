package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/costmodel"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestLatFitConvergesAfterRTTStep: the fit must track a provider RTT
// regime change (10 ms → 80 ms base latency) within its EWMA window
// instead of averaging the two regimes forever.
func TestLatFitConvergesAfterRTTStep(t *testing.T) {
	f := newLatFit(tunerFitDecay)
	perByte := 1.25e-7 // 8 MB/s upload bandwidth
	sample := func(base float64, size float64) {
		f.add(size, base+perByte*size)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		sample(0.010, float64(10_000+rng.Intn(500_000)))
	}
	base, slope, ok := f.fit()
	if !ok {
		t.Fatal("fit not ready after 100 samples")
	}
	if base < 0.005 || base > 0.015 {
		t.Fatalf("pre-step base = %v, want ≈ 0.010", base)
	}
	if slope < perByte/2 || slope > perByte*2 {
		t.Fatalf("pre-step perByte = %v, want ≈ %v", slope, perByte)
	}
	// RTT steps up 8×. ~150 samples ≫ the ~50-sample decay window.
	for i := 0; i < 150; i++ {
		sample(0.080, float64(10_000+rng.Intn(500_000)))
	}
	base, _, _ = f.fit()
	if base < 0.060 || base > 0.100 {
		t.Fatalf("post-step base = %v, want ≈ 0.080 (fit failed to track the regime change)", base)
	}
}

// TestLatFitDegenerateSizes: constant-size samples carry no slope
// information; the fit must fall back to a pure fixed-latency model
// instead of dividing by a ~zero determinant.
func TestLatFitDegenerateSizes(t *testing.T) {
	f := newLatFit(tunerFitDecay)
	for i := 0; i < 20; i++ {
		f.add(8192, 0.040)
	}
	base, slope, ok := f.fit()
	if !ok {
		t.Fatal("fit not ready")
	}
	if slope != 0 {
		t.Fatalf("perByte = %v on constant sizes, want 0", slope)
	}
	if base < 0.039 || base > 0.041 {
		t.Fatalf("base = %v, want ≈ 0.040", base)
	}
}

// tunerTestInput is the 40 ms RTT / 256-byte-commit shape the adaptive
// bench runs, at 200 updates/s against S3 prices.
func tunerTestInput(ceiling float64) solveInput {
	return solveInput{
		rate:           200,
		bytesPerUpdate: 300,
		base:           0.040,
		perByte:        1.25e-7,
		uploaders:      5,
		safety:         1024,
		maxTB:          10 * time.Second,
		ceilingPerDay:  ceiling,
		prices:         cloud.AmazonS3May2017(),
	}
}

// steadyDollarsPerDay prices the steady state of batch size b at the
// given rate, with the same deployment shape the controller budgets.
func steadyDollarsPerDay(rate float64, b int) float64 {
	dep := costmodel.PaperEvaluationDeployment()
	dep.UpdatesPerMinute = rate * 60
	dep.Batch = float64(b)
	return costmodel.Monthly(dep, cloud.AmazonS3May2017()).Total() / 30
}

// TestSolveKnobsCostCeilingBinding: the ceiling must bind — the chosen
// batch's steady-state spend stays under it, a looser ceiling buys a
// smaller (lower-latency) batch, a tighter one forces a larger batch.
func TestSolveKnobsCostCeilingBinding(t *testing.T) {
	bTight, _, _ := solveKnobs(tunerTestInput(0.25))
	bMid, _, _ := solveKnobs(tunerTestInput(0.80))
	bLoose, _, _ := solveKnobs(tunerTestInput(2.00))
	for _, tc := range []struct {
		ceiling float64
		b       int
	}{{0.25, bTight}, {0.80, bMid}, {2.00, bLoose}} {
		if got := steadyDollarsPerDay(200, tc.b); got > tc.ceiling {
			t.Fatalf("ceiling $%v/day: B=%d costs $%v/day", tc.ceiling, tc.b, got)
		}
	}
	if !(bTight > bMid && bMid > bLoose) {
		t.Fatalf("ceiling ordering violated: B(0.25)=%d, B(0.80)=%d, B(2.00)=%d (want strictly decreasing)",
			bTight, bMid, bLoose)
	}
	// At $0.8/day and 200 upd/s the PUT term is ~$86.4/day at B=1, so the
	// floor is ≈ 86.4/(0.9·0.8) ≈ 120+: the latency optimum alone (small
	// batches) would blow the budget, proving the constraint is active.
	if bMid < 100 {
		t.Fatalf("B(0.80) = %d: ceiling not binding (latency optimum leaked through)", bMid)
	}
}

// TestSolveKnobsClampsToSafety: an infeasible ceiling (or an absurd rate)
// must clamp to Safety — never exceed it, never reject the solve.
func TestSolveKnobsClampsToSafety(t *testing.T) {
	in := tunerTestInput(0.01) // ~$86/day of PUTs at B=1; $0.01 is hopeless
	b, tb, _ := solveKnobs(in)
	if b != in.safety {
		t.Fatalf("infeasible ceiling: B = %d, want clamp to Safety %d", b, in.safety)
	}
	if tb > in.maxTB || tb < tunerMinTB {
		t.Fatalf("TB = %v outside [%v, %v]", tb, tunerMinTB, in.maxTB)
	}
	in = tunerTestInput(1e9) // no effective ceiling: pure latency optimum
	b, _, _ = solveKnobs(in)
	if b < 1 || b > in.safety {
		t.Fatalf("unconstrained solve: B = %d outside [1, %d]", b, in.safety)
	}
}

// TestCommitQueueShrinkWakesAggregator: five pending updates sit short of
// B=100; when the controller shrinks B to 3 the parked Aggregator must
// wake and cut a batch of 3 — a publish that didn't broadcast would
// deadlock the pipeline until the (long) old TB fired.
func TestCommitQueueShrinkWakesAggregator(t *testing.T) {
	clk := simclock.NewSim()
	p := testParams(100, 1000)
	p.Clock = clk
	p.BatchTimeout = time.Hour // only the knob change may release the cut
	params, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	q := newCommitQueue(params)
	defer q.close()
	for i := 0; i < 5; i++ {
		if _, err := q.put(update{path: "pg_xlog/0001", off: int64(i) * 8192, data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	cut := -1
	aggregator := simclock.NewGroup(clk)
	aggregator.Go(func() {
		if b, ok := q.nextBatch(nil); ok {
			cut = len(b)
		}
	})
	clk.Sleep(0) // the aggregator parks: 5 updates are short of B
	if cut != -1 {
		t.Fatalf("nextBatch returned %d updates before the shrink", cut)
	}
	start := clk.Now()
	q.setKnobs(3, time.Hour)
	aggregator.Wait()
	if cut != 3 {
		t.Fatalf("batch of %d after shrink to B=3", cut)
	}
	if d := clk.Since(start); d != 0 {
		t.Fatalf("aggregator woke at +%v, by the re-armed TB, not by the shrink (missing wakeup)", d)
	}
	q.mu.Lock()
	b, tb := q.batch, q.batchTimeout
	q.mu.Unlock()
	if b != 3 || tb != time.Hour {
		t.Fatalf("queue knobs = (%d, %v), want (3, 1h)", b, tb)
	}
}

// TestTunerAdaptsUnderSimulatedCloud: end to end on a virtual clock — a
// paced workload over a 40 ms simulated WAN must move the effective
// batch off its initial value, respect [1, Safety], produce a fitted PUT
// latency near the modelled RTT, and keep the steady-state spend under
// the ceiling.
func TestTunerAdaptsUnderSimulatedCloud(t *testing.T) {
	clk := simclock.NewSim()
	store := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{
		Profile: cloudsim.Profile{BaseLatency: 40 * time.Millisecond, UploadBandwidth: 8e6, DownloadBandwidth: 30e6},
		Clock:   clk,
		Seed:    1,
	})
	p := DefaultParams()
	p.Clock = clk
	p.Batch = 100
	p.Safety = 1024
	p.BatchTimeout = 10 * time.Second
	p.SafetyTimeout = 2 * time.Minute
	p.AdaptiveBatching = true
	p.CostCeilingPerDay = 0.8
	g, err := New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fsys := g.FS()
	payload := make([]byte, 256)
	// 200 updates/s for 6 virtual seconds.
	for i := 0; i < 1200; i++ {
		if err := vfs.WriteAt(fsys, "pg_xlog/000000010000000000000001", int64(i%4096)*8192, payload); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(5 * time.Millisecond)
	}
	if !g.Flush(10 * time.Minute) {
		t.Fatal("Flush did not drain")
	}
	s := g.Stats()
	if s.EffectiveBatch < 1 || s.EffectiveBatch > p.Safety {
		t.Fatalf("EffectiveBatch = %d outside [1, %d]", s.EffectiveBatch, p.Safety)
	}
	if s.EffectiveBatch == p.Batch {
		t.Fatalf("EffectiveBatch stayed at the initial %d: controller never re-solved", p.Batch)
	}
	if s.FittedPutLatency < 20*time.Millisecond || s.FittedPutLatency > 200*time.Millisecond {
		t.Fatalf("FittedPutLatency = %v, want near the 40ms modelled RTT", s.FittedPutLatency)
	}
	if got := steadyDollarsPerDay(200, s.EffectiveBatch); got > 0.8 {
		t.Fatalf("steady spend at EffectiveBatch %d = $%v/day > $0.8 ceiling", s.EffectiveBatch, got)
	}
}

// TestAdaptiveProperty: across 5 seeds of randomized pacing, payload
// sizes and knob starting points, the controller must (a) keep the
// effective batch within [1, Safety], (b) keep steady-state spend at the
// paced workload's rate under the ceiling — or sit exactly at the Safety
// clamp when the ceiling is infeasible at that rate — and (c) never
// deadlock the aggregator as knobs move mid-batch (the
// bounded-virtual-time Flush proves liveness).
func TestAdaptiveProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := simclock.NewSim()
			store := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{
				Profile: cloudsim.Profile{
					BaseLatency:     time.Duration(5+rng.Intn(150)) * time.Millisecond,
					UploadBandwidth: 8e6, DownloadBandwidth: 30e6, JitterFraction: 0.1,
				},
				Clock: clk,
				Seed:  seed,
			})
			ceiling := []float64{0.25, 0.8, 2.0}[rng.Intn(3)]
			p := DefaultParams()
			p.Clock = clk
			p.Batch = 1 + rng.Intn(200)
			p.Safety = p.Batch * (2 + rng.Intn(8))
			p.BatchTimeout = 10 * time.Second
			p.SafetyTimeout = 2 * time.Minute
			p.AdaptiveBatching = true
			p.CostCeilingPerDay = ceiling
			g, err := New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), p)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Boot(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			fsys := g.FS()
			payload := make([]byte, 64+rng.Intn(1024))
			pace := time.Duration(1+rng.Intn(10)) * time.Millisecond
			commits := 600
			start := clk.Now()
			for i := 0; i < commits; i++ {
				if err := vfs.WriteAt(fsys, "pg_xlog/000000010000000000000001", int64(i%4096)*8192, payload); err != nil {
					t.Fatal(err)
				}
				clk.Sleep(pace)
				if rng.Intn(97) == 0 {
					clk.Sleep(time.Duration(rng.Intn(400)) * time.Millisecond) // lull
				}
			}
			rate := float64(commits) / clk.Since(start).Seconds()
			if !g.Flush(10 * time.Minute) {
				t.Fatal("Flush did not drain (aggregator deadlocked under moving knobs?)")
			}
			s := g.Stats()
			if s.EffectiveBatch < 1 || s.EffectiveBatch > p.Safety {
				t.Fatalf("EffectiveBatch = %d outside [1, %d]", s.EffectiveBatch, p.Safety)
			}
			if s.EffectiveBatchTimeout > p.BatchTimeout {
				t.Fatalf("EffectiveBatchTimeout = %v exceeds the configured cap %v", s.EffectiveBatchTimeout, p.BatchTimeout)
			}
			if s.FittedPutLatency <= 0 {
				t.Fatalf("controller never re-solved in %d commits", commits)
			}
			if s.EffectiveBatch != p.Safety { // Safety clamp = documented infeasible case
				if got := steadyDollarsPerDay(rate, s.EffectiveBatch); got > ceiling {
					t.Fatalf("steady spend at B=%d, rate %.0f/s = $%.3f/day > $%v ceiling",
						s.EffectiveBatch, rate, got, ceiling)
				}
			}
		})
	}
}

// TestCrashMidPipelinedPut: the pipelined uploader seals ahead of the
// PUT stage; a crash while an object is sealed-but-unPUT must not ack it
// — recovery applies only the consecutive-ts prefix, exactly as in the
// sequential path.
func TestCrashMidPipelinedPut(t *testing.T) {
	mem := cloud.NewMemStore()
	gs := &gatedStore{ObjectStore: mem, blocked: make(map[string]chan struct{})}
	gs.block("WAL/2_")

	p := DefaultParams()
	p.Batch = 6
	p.Safety = 64
	p.BatchTimeout = 20 * time.Millisecond
	p.MaxObjectSize = 200 // 6 × 100 B writes → 3 packed objects (ts 1,2,3)
	p.RetryBaseDelay = time.Millisecond
	p.Uploaders = 2 // seal stage runs ahead of the gated PUT stage
	g, err := New(vfs.NewMemFS(), gs, dbevent.NewPGProcessor(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	fsys := g.FS()
	for i := 0; i < 6; i++ {
		data := make([]byte, 100)
		for j := range data {
			data[j] = 'a' + byte(i)
		}
		if err := vfs.WriteAt(fsys, "pg_xlog/0001", int64(i)*100, data); err != nil {
			t.Fatal(err)
		}
	}
	// ts=1 and ts=3 land; ts=2 is sealed but stuck behind the gate.
	for infos, _ := mem.List(context.Background(), "WAL/"); len(infos) < 2; infos, _ = mem.List(context.Background(), "WAL/") {
		time.Sleep(time.Millisecond)
	}
	// No release may have happened: ts=1 alone is not a full batch, and
	// the ts=2 gap blocks the frontier. Then crash without draining.
	if got := g.pipe.q.size(); got != 6 {
		t.Fatalf("queue released %d updates with ts=2 still unPUT", 6-got)
	}
	g.pipe.drainAndStop(10 * time.Millisecond) //nolint:errcheck
	g.ckpt.stop(10 * time.Millisecond)         //nolint:errcheck // the dead machine's other thread

	freshFS := vfs.NewMemFS()
	g2, err := New(freshFS, mem, dbevent.NewPGProcessor(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer g2.Close()
	got, err := vfs.ReadFile(freshFS, "pg_xlog/0001")
	if err != nil {
		t.Fatalf("recovered WAL missing: %v", err)
	}
	if len(got) < 200 {
		t.Fatalf("consecutive prefix (ts=1, 200 bytes) not recovered: %d bytes", len(got))
	}
	if len(got) > 400 {
		t.Fatalf("recovered %d bytes: ts=3 applied past the sealed-but-unPUT ts=2 gap", len(got))
	}
}

// TestRetryJitterBoundsAndDeterminism: the jitter factor must live in
// [0.5, 1.0), respect the minRetryDelay floor, decorrelate distinct
// objects, and be a pure function of its inputs (so simulation runs stay
// reproducible).
func TestRetryJitterBoundsAndDeterminism(t *testing.T) {
	now := time.Unix(1700000000, 12345)
	d := 100 * time.Millisecond
	seen := map[time.Duration]bool{}
	for _, name := range []string{"WAL/1_pg_xlog_0001_0", "WAL/2_pg_xlog_0001_8192", "LIST", "DB/3_dump"} {
		for attempt := 0; attempt < 6; attempt++ {
			j := retryJitter(d, name, attempt, now)
			if j < d/2 || j >= d {
				t.Fatalf("retryJitter(%v, %q, %d) = %v outside [d/2, d)", d, name, attempt, j)
			}
			if j != retryJitter(d, name, attempt, now) {
				t.Fatalf("retryJitter not deterministic for (%q, %d)", name, attempt)
			}
			seen[j] = true
		}
	}
	if len(seen) < 12 {
		t.Fatalf("only %d distinct jitters across 24 (name, attempt) pairs: not decorrelating", len(seen))
	}
	if j := retryJitter(minRetryDelay, "x", 0, now); j < minRetryDelay {
		t.Fatalf("jitter broke the minRetryDelay floor: %v", j)
	}
}
