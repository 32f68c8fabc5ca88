package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/costmodel"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// DefaultCostCeilingPerDay is the spend budget the adaptive controller
// optimizes under when Params.CostCeilingPerDay is left zero: the paper's
// titular one dollar per month.
const DefaultCostCeilingPerDay = 1.0 / 30

// Controller cadence and filter constants.
const (
	// tunerInterval is the re-solve cadence. 100ms is fast enough to
	// catch an arrival-rate lull within one small batch's fill time and
	// slow enough that a tick costs nothing against cloud RTTs.
	tunerInterval = 100 * time.Millisecond
	// tunerRateAlpha is the EWMA weight of the newest arrival-rate and
	// bytes-per-update sample.
	tunerRateAlpha = 0.3
	// tunerFitDecay is the latency-fit history decay per PUT sample
	// (≈50-sample window), so an RTT regime shift is tracked within a
	// few dozen PUTs.
	tunerFitDecay = 0.98
	// tunerMinTB is the floor for the effective batch timeout.
	tunerMinTB = time.Millisecond
	// tunerCostMargin spends at most this fraction of the ceiling,
	// leaving headroom for arrival-rate estimation error.
	tunerCostMargin = 0.9
	// tunerLullFactor: an instantaneous rate below this fraction of the
	// smoothed rate means arrivals paused — flush partials immediately
	// instead of waiting out a fill-scaled timeout.
	tunerLullFactor = 0.25
	// tunerUtilizationCap marks the uploader pool saturated: above it the
	// queueing term diverges and the candidate batch size is rejected.
	tunerUtilizationCap = 0.95
)

// effectiveKnobs is one immutable published snapshot of the controller's
// choice. Readers load the whole struct through an atomic pointer, so a
// batch cut mid-stream can never observe B from one solve and TB from
// another.
type effectiveKnobs struct {
	batch   int
	timeout time.Duration
	// putLatency is the fitted latency of one WAL PUT at this batch size
	// (base + perByte·batch·bytesPerUpdate); zero until the fit has
	// enough samples.
	putLatency time.Duration
	// fitBase/fitPerByte expose the raw fitted curve for the gauges.
	fitBase    float64
	fitPerByte float64
}

// tuner is the online (B, TB) controller: it samples per-PUT
// (sealed-size, latency) pairs from the upload stage, fits the cloud's
// latency-vs-size curve (latFit), tracks the commit arrival rate, and
// periodically re-solves for the effective knobs that minimize expected
// commit latency subject to Params.CostCeilingPerDay. Solutions are
// published atomically here (for Stats/gauges) and pushed into the
// commitQueue under its own mutex (for batch cuts), clamped so the
// Safety invariant S ≥ B always holds.
type tuner struct {
	clk     simclock.Clock
	q       *commitQueue
	params  Params
	updates func() int64 // cumulative commits submitted (pipeline counter)

	mu          sync.Mutex
	fit         latFit
	rate        float64 // λ̂: smoothed arrival rate, updates/sec
	bytesPer    float64 // smoothed sealed bytes contributed per update
	sampleBytes int64   // sealed bytes PUT since the last tick
	samplePuts  int64
	lastTick    time.Time
	lastUpdates int64

	knobs atomic.Pointer[effectiveKnobs]
	timer simclock.Timer
	done  atomic.Bool
}

func newTuner(q *commitQueue, params Params, updates func() int64) *tuner {
	t := &tuner{
		clk:     params.clock(),
		q:       q,
		params:  params,
		updates: updates,
		fit:     newLatFit(tunerFitDecay),
	}
	// Until the fit warms up the configured knobs stand.
	t.knobs.Store(&effectiveKnobs{batch: params.Batch, timeout: params.BatchTimeout})
	t.timer = t.clk.NewFuncTimer(t.onTick)
	return t
}

// start arms the periodic re-solve. The tick is a func timer on the
// instance clock, not a dedicated goroutine — under fleet mode
// Admit overrides Params.Clock with the fleet's shared tick wheel, so a
// thousand tenants' tuner ticks multiplex onto one timer heap instead
// of a thousand runtime timers with a goroutine each.
func (t *tuner) start() {
	t.mu.Lock()
	t.lastTick = t.clk.Now()
	t.mu.Unlock()
	t.timer.Reset(tunerInterval)
}

// close stops the re-solve timer. Idempotent; a tick racing the stop is
// harmless (setKnobs ignores a closed queue).
func (t *tuner) close() {
	t.done.Store(true)
	t.timer.Stop()
}

func (t *tuner) onTick() {
	if t.done.Load() {
		return
	}
	t.tick(t.clk.Now())
	if !t.done.Load() {
		t.timer.Reset(tunerInterval)
	}
}

// observePut feeds one completed WAL PUT into the latency fit. Called
// from the upload workers; a mutex keeps it allocation-free.
func (t *tuner) observePut(sealedBytes int, latency time.Duration) {
	t.mu.Lock()
	t.fit.add(float64(sealedBytes), latency.Seconds())
	t.sampleBytes += int64(sealedBytes)
	t.samplePuts++
	t.mu.Unlock()
}

// snapshot returns the current published knobs by value.
func (t *tuner) snapshot() effectiveKnobs { return *t.knobs.Load() }

// tick advances the rate estimate and re-solves. Split from onTick so
// unit tests can drive the controller without the timer.
func (t *tuner) tick(now time.Time) {
	t.mu.Lock()
	dt := now.Sub(t.lastTick).Seconds()
	if dt <= 0 {
		t.mu.Unlock()
		return
	}
	cum := t.updates()
	delta := cum - t.lastUpdates
	t.lastUpdates = cum
	t.lastTick = now
	inst := float64(delta) / dt
	lull := t.rate > 0 && inst < t.rate*tunerLullFactor
	if delta > 0 {
		t.rate = t.rate*(1-tunerRateAlpha) + inst*tunerRateAlpha
		if t.samplePuts > 0 && t.sampleBytes > 0 {
			bpu := float64(t.sampleBytes) / float64(delta)
			if t.bytesPer == 0 {
				t.bytesPer = bpu
			} else {
				t.bytesPer = t.bytesPer*(1-tunerRateAlpha) + bpu*tunerRateAlpha
			}
		}
	} else {
		// Decay toward zero so a stopped workload doesn't pin stale knobs.
		t.rate *= 1 - tunerRateAlpha
	}
	t.sampleBytes, t.samplePuts = 0, 0
	base, perByte, ok := t.fit.fit()
	rate, bytesPer := t.rate, t.bytesPer
	t.mu.Unlock()

	cur := t.knobs.Load()
	if lull {
		// Arrivals paused mid-stream: whatever is already queued should
		// flush at once rather than wait out a timeout sized for the
		// steady rate. Keep B (cost math is about steady state; a lull
		// batch is partial anyway).
		if cur.timeout != tunerMinTB {
			k := *cur
			k.timeout = tunerMinTB
			t.publish(&k)
		}
		return
	}
	if !ok || rate <= 0 || bytesPer <= 0 {
		return
	}
	b, tb, putLat := solveKnobs(solveInput{
		rate:           rate,
		bytesPerUpdate: bytesPer,
		base:           base,
		perByte:        perByte,
		uploaders:      t.params.Uploaders,
		safety:         t.params.Safety,
		maxTB:          t.params.BatchTimeout,
		ceilingPerDay:  t.params.CostCeilingPerDay,
		prices:         t.params.Prices,
	})
	t.publish(&effectiveKnobs{
		batch:      b,
		timeout:    tb,
		putLatency: putLat,
		fitBase:    base,
		fitPerByte: perByte,
	})
}

func (t *tuner) publish(k *effectiveKnobs) {
	t.knobs.Store(k)
	t.q.setKnobs(k.batch, k.timeout)
}

// solveInput carries everything solveKnobs needs, so the optimization is
// a pure function unit tests can probe directly.
type solveInput struct {
	rate           float64 // λ̂ updates/sec, > 0
	bytesPerUpdate float64 // mean sealed bytes per update, > 0
	base, perByte  float64 // fitted PUT latency model (s, s/byte)
	uploaders      int
	safety         int
	maxTB          time.Duration // configured BatchTimeout = effective-TB cap
	ceilingPerDay  float64
	prices         cloud.PriceSheet
}

// expectedLatency models the mean commit latency at batch size b:
// half-fill wait (a commit arrives uniformly within its batch's fill
// window) plus PUT service time inflated by an M/D/c-flavoured queueing
// term as the uploader pool approaches saturation.
func (in solveInput) expectedLatency(b int) float64 {
	bf := float64(b)
	fill := (bf - 1) / (2 * in.rate)
	l := in.base + in.perByte*bf*in.bytesPerUpdate
	if l < 1e-6 {
		l = 1e-6
	}
	ueff := float64(in.uploaders)
	// The Safety window caps how many batches can be in flight at once,
	// so tiny batches can't actually use the whole pool.
	if c := float64(in.safety) / bf; c < ueff {
		ueff = c
	}
	if ueff < 1 {
		ueff = 1
	}
	rho := in.rate * l / (bf * ueff)
	if rho >= tunerUtilizationCap {
		return math.Inf(1)
	}
	return fill + l*(1+rho/(2*(1-rho)))
}

// costFloorB returns the smallest batch size whose projected steady-state
// spend fits the ceiling. The WAL-PUT term is the only batch-dependent
// component of the costmodel (§7.1), so the floor is closed-form: spend
// per day = fixed + putAt1/B, with the paper's evaluation deployment
// re-rated at the measured arrival rate.
func costFloorB(in solveInput) int {
	if in.ceilingPerDay <= 0 {
		return 1
	}
	dep := costmodel.PaperEvaluationDeployment()
	dep.UpdatesPerMinute = in.rate * 60
	dep.Batch = 1
	c := costmodel.Monthly(dep, in.prices)
	fixedPerDay := (c.Total() - c.WALPut) / 30
	putAt1PerDay := c.WALPut / 30
	budget := in.ceilingPerDay*tunerCostMargin - fixedPerDay
	if budget <= 0 {
		// Even infinite batching can't meet the ceiling at this rate —
		// the best we can do is batch as hard as Safety allows.
		return in.safety
	}
	b := int(math.Ceil(putAt1PerDay / budget))
	if b < 1 {
		b = 1
	}
	return b
}

// solveKnobs picks the (B, TB) minimizing expectedLatency subject to the
// cost ceiling and the Safety clamp. TB is derived from B: twice the
// expected fill time, so the timeout only fires when arrivals genuinely
// stall, bounded above by the configured BatchTimeout (the user's TB acts
// as a worst-case cap, never exceeded) and below by tunerMinTB. Returns
// the chosen knobs plus the fitted PUT latency at the chosen size.
func solveKnobs(in solveInput) (batch int, tb time.Duration, putLatency time.Duration) {
	maxB := in.safety
	if maxB < 1 {
		maxB = 1
	}
	minB := costFloorB(in)
	if minB > maxB {
		// Ceiling infeasible even at S: clamp to the Safety invariant and
		// spend as little as the durability contract allows.
		minB = maxB
	}
	bestB, bestF := maxB, math.Inf(1)
	// Geometric scan: ~32 points per octave keeps the search O(log S)
	// while the smooth objective stays within a few percent of the true
	// optimum.
	for b := minB; b <= maxB; {
		if f := in.expectedLatency(b); f < bestF {
			bestF, bestB = f, b
		}
		step := b / 32
		if step < 1 {
			step = 1
		}
		b += step
	}
	if f := in.expectedLatency(maxB); f < bestF {
		bestB = maxB
	}
	batch = bestB
	tbf := 2 * float64(batch) / in.rate // seconds
	tb = time.Duration(tbf * float64(time.Second))
	if tb > in.maxTB {
		tb = in.maxTB
	}
	if tb < tunerMinTB {
		tb = tunerMinTB
	}
	l := in.base + in.perByte*float64(batch)*in.bytesPerUpdate
	putLatency = time.Duration(l * float64(time.Second))
	return batch, tb, putLatency
}
