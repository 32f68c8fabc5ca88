// Package sim is Ginja's deterministic simulation testing (DST) driver:
// it runs the full stack — minidb on an intercepted FS, the commit
// pipeline, the checkpointer, and a latency-modelled simulated cloud —
// entirely in virtual time on a simclock.SimClock, executes a seed-derived
// fault schedule (provider outages, transient-failure windows, a primary
// crash), recovers on a fresh machine, and checks the consistent-prefix
// invariant: the recovered database must equal the state after some prefix
// of the commit history, and that prefix must cover everything the last
// successful Flush guaranteed.
//
// Because TB/TS timeouts, retry backoff and cloud latency all run on the
// virtual clock, a simulated run that spans minutes of modelled time
// finishes in milliseconds of wall time, and rare interleavings — TB
// expiry on a quiet queue, TS blocking through an outage, a crash with a
// checkpoint upload in flight — are reached on purpose instead of by
// winning wall-clock races.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Config selects what to simulate.
type Config struct {
	// Seed drives everything: the fault schedule, the Batch/Safety
	// parameters and the workload.
	Seed int64
	// Schedule overrides the generated fault schedule (nil = Generate(Seed)).
	Schedule *Schedule
	// CrashDuringCheckpoint issues one final DBMS checkpoint right before
	// the crash and kills the primary a few virtual milliseconds in — long
	// enough for the first part PUTs of the multi-part upload to land, short
	// enough that the rest never do. The crash lands mid part-stream by
	// construction instead of by winning a race.
	CrashDuringCheckpoint bool
	// Follower runs a warm standby tailing the bucket (on its own seed-drawn
	// poll interval) throughout the workload, and recovers by Promote
	// instead of a cold Recover — the warm-standby drill.
	Follower bool
	// PromoteDuringOutage (requires Follower) starts a provider outage at
	// the instant of the disaster and ends it one virtual second later:
	// Promote's final catch-up must ride the outage out under the retry
	// policy rather than fail.
	PromoteDuringOutage bool
	// FillerRows pre-populates this many untracked rows before the workload
	// so the database (and its dumps) carry real bulk: the cold-vs-warm RTO
	// comparison in the experiments depends on recovery work scaling with
	// database size while promote scales with lag.
	FillerRows int
	// Adaptive runs the primary with the AdaptiveBatching controller: the
	// effective (B, TB) move during the workload (shrinking TB on think
	// lulls, re-solving as PUT latency samples arrive), so faults land
	// while knobs are mid-flight — the schedule's outages and the crash
	// must still yield a consistent prefix.
	Adaptive bool
	// Deltas runs the primary with delta checkpoints on a seed-drawn small
	// MaxDeltaChain (so chains fold into fresh bases during the run): the
	// 150 % rule ships sparse chain elements instead of full re-dumps, and
	// the crash/recovery invariants must hold across chains, folds, and
	// crashes that land mid-delta upload.
	Deltas bool
}

// Result summarises one simulation run.
type Result struct {
	Schedule *Schedule
	// Params is the configuration the primary ran with, derived from the
	// seed. MaxObjectSize is drawn small enough that dumps split into
	// several parts, so the concurrent part-upload path is exercised
	// under faults.
	Params core.Params
	// Workload outcome.
	Commits     int
	Checkpoints int64
	FlushedUpTo int // last commit seq guaranteed durable by a Flush (-1: none)
	Cut         int // recovered prefix cut point (-1: empty state)
	// Fault-path activity.
	BlockedTime time.Duration // virtual time commits spent blocked on Safety/TS
	Retries     int64
	PipelineErr string // fatal replication error on the crashed primary, if any
	// Commit-path packing activity on the crashed primary: total WAL
	// objects uploaded and how many carried a packed multi-write body.
	WALObjects       int64
	PackedWALObjects int64
	// Deltas / Dumps are the chain elements the crashed primary shipped
	// durably (the delta drills assert the chain path actually ran).
	Deltas int64
	Dumps  int64
	// OrphanParts is how many stranded DB parts the recovery instance's
	// cloud listing pruned and recorded (leftovers of an upload the crash
	// cut off mid part-stream).
	OrphanParts int
	// VirtualElapsed is how much virtual time the run spanned.
	VirtualElapsed time.Duration
	// RPO is the measured data-loss window at the instant of the crash:
	// the age (virtual clock) of the oldest update the cloud had not yet
	// acknowledged when the primary died. Zero means the disaster struck a
	// fully synchronized instance.
	RPO time.Duration
	// RTO is the measured recovery time (virtual clock) of the replacement
	// site's Recover call — or, when Promoted, of the warm standby's
	// Promote; Recovery is its per-phase budget either way.
	RTO      time.Duration
	Recovery *core.RecoveryBreakdown
	// Promoted reports that recovery went through the warm standby.
	Promoted bool
	// FollowerLag is the standby's replication lag at the instant of the
	// crash (how long ago it last held everything the bucket listed).
	FollowerLag time.Duration
	// TraceHash fingerprints the primary's cloud traffic: every operation
	// it issued, as (virtual time, op, object name), hashed. The clock is
	// exact, so it is a function of the seed alone — equal on any core
	// count.
	TraceHash uint64
}

// faultLatency is the simulated WAN's round trip under fault schedules.
const faultLatency = 40 * time.Millisecond

// Run executes one simulated disaster-recovery scenario and checks the
// consistent-prefix invariant. The returned error, if any, embeds the
// schedule so the run can be replayed from its seed.
func Run(cfg Config) (*Result, error) {
	sched := cfg.Schedule
	if sched == nil {
		sched = Generate(cfg.Seed)
	}
	res := &Result{Schedule: sched, FlushedUpTo: -1, Cut: -2}
	fail := func(format string, args ...any) (*Result, error) {
		return res, fmt.Errorf("sim: [%s] %s", sched, fmt.Sprintf(format, args...))
	}

	// Workload/parameter randomness is a separate deterministic stream
	// from the schedule's, so tweaking Generate never re-rolls workloads.
	rng := rand.New(rand.NewSource(sched.Seed ^ 0x5ee1e55edBeef))

	rig := NewRig(WAN(faultLatency, 0.10), sched.Seed)
	clk, simStore := rig.Clock, rig.Store
	kill := &crashStore{inner: simStore, clk: clk}

	params := rig.Params()
	params.Batch = 1 + rng.Intn(8)
	params.Safety = params.Batch * (2 + rng.Intn(16))
	params.BatchTimeout = time.Duration(50+rng.Intn(1950)) * time.Millisecond
	params.SafetyTimeout = time.Duration(1+rng.Intn(14)) * time.Second
	params.DumpThreshold = 1.1 + rng.Float64()
	if rng.Intn(3) == 0 {
		// Bounded retries: a long enough outage exhausts them and drives
		// the pipeline down the fatal path.
		params.UploadRetries = 2 + rng.Intn(8)
	} else {
		params.UploadRetries = 0 // retry forever, ride the outage out
	}
	// The data-path knobs draw from their own stream so that adding them
	// did not re-roll every existing seed's workload above.
	prng := rand.New(rand.NewSource(sched.Seed ^ 0x9a7a11e1))
	params.MaxObjectSize = int64(1024 * (2 + prng.Intn(7))) // 2–8 KiB: dumps split into parts
	params.CheckpointUploaders = 1 + prng.Intn(5)
	params.RecoveryFetchers = 1 + prng.Intn(5)
	if cfg.Adaptive {
		// Gated behind the flag (and drawing from a third stream) so that
		// non-adaptive seeds keep their exact workloads. The tight/loose
		// ceiling split makes some seeds clamp B to Safety and others run
		// the cost-bound solver, so faults land on both regimes.
		arng := rand.New(rand.NewSource(sched.Seed ^ 0xada97e))
		params.AdaptiveBatching = true
		params.CostCeilingPerDay = []float64{0.25, 1.0, 4.0}[arng.Intn(3)]
	}
	if cfg.Deltas {
		// Gated and on a fourth stream for the same reason as Adaptive: seeds
		// that don't opt in keep their exact workloads. Compression is off and
		// the threshold sits just above 1 so cloud bytes track raw bytes and
		// most checkpoints cross it — short runs then actually build chains,
		// which the small MaxDeltaChain folds mid-run.
		drng := rand.New(rand.NewSource(sched.Seed ^ 0xde17a5))
		params.DeltaCheckpoints = true
		params.MaxDeltaChain = 2 + drng.Intn(5) // 2–6: chains fold mid-run
		params.Compress = false
		params.DumpThreshold = 1.05 + drng.Float64()*0.3
	}
	res.Params = params

	// Arm the fault schedule on the virtual clock.
	applyEvent := func(ev Event) {
		switch ev.Kind {
		case OutageStart:
			simStore.StartOutage()
		case OutageEnd:
			simStore.EndOutage()
		case TransientStart:
			simStore.SetFailureRate(ev.Rate)
		case TransientEnd:
			simStore.SetFailureRate(0)
		}
	}
	timers := make([]simclock.Timer, 0, len(sched.Events))
	for _, ev := range sched.Events {
		ev := ev
		t := clk.NewFuncTimer(func() { applyEvent(ev) })
		t.Reset(ev.At)
		timers = append(timers, t)
	}

	ctx := context.Background()
	g, err := rig.Boot(kill, params)
	if err != nil {
		return fail("%v", err)
	}
	db, err := rig.OpenKV(g)
	if err != nil {
		return fail("%v", err)
	}
	if cfg.FillerRows > 0 {
		// Bulk outside the tracked key set: it weighs down dumps and cold
		// restores without touching the prefix check.
		if err := PutRows(db, "pad-%05d", cfg.FillerRows, strings.Repeat("b", 128)); err != nil {
			return fail("filler %v", err)
		}
		if err := db.Checkpoint(); err != nil {
			return fail("filler checkpoint: %v", err)
		}
		if !g.Flush(2 * time.Minute) {
			return fail("filler flush timed out")
		}
	}

	// The warm standby tails the same bucket from a second site on its own
	// cadence; the primary's crash does not touch it.
	var fol *core.Follower
	if cfg.Follower {
		fparams := params
		fparams.FollowInterval = time.Duration(100+prng.Intn(800)) * time.Millisecond
		fparams.UploadRetries = 0 // Promote's catch-up rides outages out
		fol, err = core.NewFollower(vfs.NewMemFS(), simStore, dbevent.NewPGProcessor(), fparams)
		if err != nil {
			return fail("new follower: %v", err)
		}
		if err := fol.Start(ctx); err != nil {
			return fail("follower start: %v", err)
		}
	}

	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	log := &kvLog{db: db}
	var ckpts int64 // DBMS checkpoints issued
	for i := 0; i < sched.Steps; i++ {
		if i == sched.CrashAfterStep {
			break
		}
		switch r := rng.Intn(100); {
		case r < 60: // put
			if err := log.write(keys[rng.Intn(len(keys))], false); err != nil {
				return fail("step %d put: %v", i, err)
			}
		case r < 72: // delete
			if err := log.write(keys[rng.Intn(len(keys))], true); err != nil {
				return fail("step %d delete: %v", i, err)
			}
		case r < 84: // checkpoint (a crash right after leaves it in flight)
			if err := db.Checkpoint(); err != nil {
				return fail("step %d checkpoint: %v", i, err)
			}
			ckpts++
		case r < 94: // flush: everything so far becomes guaranteed-durable
			// Flush covers the WAL; every checkpoint issued so far must have
			// settled in the cloud too before the frontier moves.
			if g.Flush(2*time.Minute) && g.SyncCheckpoints(250*time.Second) {
				res.FlushedUpTo = log.commits() - 1
			}
		default: // think: let TB (and sometimes TS) expire on a quiet queue
			clk.Sleep(time.Duration(rng.Int63n(int64(2 * params.BatchTimeout))))
		}
	}
	res.Commits = log.commits()
	res.Checkpoints = ckpts

	// CRASH: the primary site dies with whatever is in flight. Cut it off
	// from the cloud, then shut its goroutines down (bounded in virtual
	// time); a fatal pipeline error here is a legitimate outcome.
	if cfg.CrashDuringCheckpoint && log.commits() > 0 {
		// Fresh keys dirty enough pages that the checkpoint's upload spans
		// several parts at the seed-drawn MaxObjectSize (2–8 KiB). The keys
		// are outside the tracked set, so the prefix check is unaffected.
		if err := PutRows(db, "stride-%03d", 96, strings.Repeat("s", 120)); err != nil {
			return fail("pre-crash filler %v", err)
		}
		if err := db.Checkpoint(); err != nil {
			return fail("pre-crash checkpoint: %v", err)
		}
		// One base cloud latency is enough for the first wave of part PUTs
		// to land but not the stragglers behind them in the uploader pool.
		clk.Sleep(faultLatency + 20*time.Millisecond)
	}
	// Measure the realized data-loss window at the instant of the
	// disaster, then cut the primary off.
	res.RPO = g.RPO()
	if fol != nil {
		res.FollowerLag = fol.Lag()
	}
	kill.kill("")
	for _, t := range timers {
		t.Stop()
	}
	stats := g.Stats()
	res.BlockedTime = stats.BlockedTime
	res.Retries = stats.UploadRetries
	res.PipelineErr = stats.LastError
	res.WALObjects = stats.WALObjectsUploaded
	res.PackedWALObjects = stats.PackedWALObjects
	res.Deltas = stats.Deltas
	res.Dumps = stats.Dumps
	_ = g.Close()
	res.TraceHash = kill.traceHash()

	// The replacement site sees a healthy provider (the schedule's faults
	// hit the primary's lifetime; recovery-time faults are exercised by
	// the retry-path tests and the promote-during-outage drill below).
	simStore.EndOutage()
	simStore.SetFailureRate(0)

	var g2 *core.Ginja
	if fol != nil {
		if cfg.PromoteDuringOutage {
			// The disaster window: the provider is dark when promote starts
			// and comes back one virtual second in. The final catch-up LIST
			// and GETs must ride it out under the retry policy.
			simStore.StartOutage()
			clk.NewFuncTimer(simStore.EndOutage).Reset(time.Second)
		}
		recoverStart := clk.Now()
		g2, err = fol.Promote(ctx)
		if err != nil {
			return fail("promote: %v", err)
		}
		res.RTO = clk.Since(recoverStart)
		res.Promoted = true
	} else {
		g2, err = rig.newGinja(nil, params)
		if err != nil {
			return fail("new recovery instance: %v", err)
		}
		recoverStart := clk.Now()
		if err := g2.Recover(ctx); err != nil {
			return fail("recover: %v", err)
		}
		res.RTO = clk.Since(recoverStart)
	}
	res.Recovery = g2.Stats().LastRecovery
	defer g2.Close()
	res.OrphanParts = len(g2.View().OrphanParts())
	db2, err := openDB(g2.FS())
	if err != nil {
		return fail("DBMS restart after recovery: %v", err)
	}

	recovered, err := readBack(db2, keys)
	if err != nil {
		return fail("%v", err)
	}

	// Property 2: some cut point reproduces the recovered state exactly.
	res.Cut = log.cut(recovered)
	res.VirtualElapsed = rig.Elapsed()
	if res.Cut == -2 {
		return fail("recovered state matches no prefix of the commit history.\nrecovered: %v\nhistory: %+v",
			recovered, log.history)
	}
	// Property 1: the cut covers everything the last Flush guaranteed.
	if res.Cut < res.FlushedUpTo {
		return fail("recovered cut %d is older than the flushed frontier %d", res.Cut, res.FlushedUpTo)
	}
	return res, nil
}
