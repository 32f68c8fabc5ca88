package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Follower is the warm-standby half of disaster recovery (ROADMAP item 3,
// in the spirit of Taurus's log-is-the-database replicas): it continuously
// tails the cloud bucket — incremental LIST diffing through a listTracker,
// parallel prefetch through prefetchInOrder, strict-order apply — into a
// warm local replica, so that Promote finishes recovery in O(replication
// lag) instead of O(database size).
//
// Apply order mirrors cold recovery exactly: complete DB objects in
// (Ts, Gen) order, and WAL objects only as a consecutive-timestamp run
// from the applied frontier (parallel uploaders land WAL out of order, so
// gapped timestamps wait in pending until the gap fills — or until a
// checkpoint covering them arrives, which skips the frontier past the gap
// just as a cold restore would). WAL and DB objects touch disjoint file
// classes, so interleaving the two streams cannot corrupt the replica.
//
// Lifecycle: NewFollower → Start (initial full sync + tail loop) → either
// Promote (disaster: final catch-up, then a started *Ginja on the warm
// files) or Close.
type Follower struct {
	localFS vfs.FS
	io      *cloudIO
	proc    dbevent.Processor
	params  Params
	clk     simclock.Clock

	ctx      context.Context
	cancel   context.CancelFunc
	loop     *simclock.Group // the tail loop, once Start launched it
	started  atomic.Bool
	promoted atomic.Bool

	// mu guards the tail state: the LIST tracker, the pending queues, the
	// applied frontier and the catch-up watermark. The apply path is
	// single-goroutine (tail loop or Promote, never both); the lock exists
	// for Stats/metrics readers.
	mu         sync.Mutex
	tracker    *listTracker
	pendingWAL map[int64]WALObjectInfo
	pendingDB  []DBObjectInfo
	appliedDBs []DBObjectInfo // DB objects applied, in (Ts, Gen) order
	appliedTs  int64          // WAL frontier: every ts ≤ this is reflected locally
	// appliedWALs remembers the WAL objects applied beyond the newest
	// applied DB object (entries at or below it are pruned: the DB object
	// covers them). They exist so an out-of-order DB repair — which
	// clobbers the local WAL files with older whole-file images — can
	// re-queue and replay the run instead of silently losing it.
	appliedWALs map[int64]WALObjectInfo
	caughtUpAt  time.Time // last instant the replica held everything listed

	polls      atomic.Int64
	listErrs   atomic.Int64
	appliedWAL atomic.Int64
	appliedDB  atomic.Int64
	watermark  atomic.Int64 // appliedTs mirror for the lock-free gauge

	errMu sync.Mutex
	err   error
}

// FollowerStats is a snapshot of a Follower's tailing activity.
type FollowerStats struct {
	// Polls counts LIST cycles (the initial sync included); ListErrors
	// counts the transient LIST failures the tail loop absorbed.
	Polls      int64
	ListErrors int64
	// AppliedWALObjects / AppliedDBObjects count objects replayed into the
	// warm replica.
	AppliedWALObjects int64
	AppliedDBObjects  int64
	// AppliedTs is the WAL frontier watermark: every timestamp up to and
	// including it is reflected in the local files.
	AppliedTs int64
	// PendingWAL is how many listed WAL objects are gap-blocked (waiting
	// for a missing timestamp or a superseding checkpoint).
	PendingWAL int
	// Lag is how long ago the replica last held everything the bucket
	// listed — the ginja_follower_lag_seconds watermark, and the bound on
	// Promote's catch-up work.
	Lag time.Duration
	// Promoted reports whether Promote has been called.
	Promoted bool
	// LastError is the fatal tail error, if any ("" while healthy).
	LastError string
}

// NewFollower creates a warm-standby follower replicating the bucket in
// store into localFS. params wants the same knobs as the primary (the
// sealer configuration must match or nothing will open); FollowInterval
// sets the poll cadence and UploadRetries/RetryBaseDelay govern how
// Promote's final catch-up rides an outage out.
func NewFollower(localFS vfs.FS, store cloud.ObjectStore, proc dbevent.Processor, params Params) (*Follower, error) {
	params, err := params.Validate()
	if err != nil {
		return nil, err
	}
	// The seam tails the same per-tenant subtree the primary writes: with
	// a Prefix set the follower's LIST diffing sees only this tenant's
	// objects.
	io, err := newCloudIO(store, params)
	if err != nil {
		return nil, err
	}
	// Everything the tail loop issues is a read.
	ctx, cancel := context.WithCancel(withClass(context.Background(), classFetch))
	clk := params.clock()
	f := &Follower{
		localFS:     localFS,
		io:          io,
		proc:        proc,
		params:      params,
		clk:         clk,
		ctx:         ctx,
		cancel:      cancel,
		loop:        simclock.NewGroup(clk),
		tracker:     newListTracker(0),
		pendingWAL:  make(map[int64]WALObjectInfo),
		appliedWALs: make(map[int64]WALObjectInfo),
	}
	f.caughtUpAt = f.clk.Now()
	if reg := params.Metrics; reg != nil {
		reg.GaugeFunc(metricFollowerLag,
			"Warm-standby replication lag in seconds: how long ago the follower last held everything the bucket listed.",
			nil, func() float64 { return f.Lag().Seconds() })
		reg.GaugeFunc(metricFollowerAppliedTs,
			"Warm-standby applied-WAL-timestamp watermark: every ts up to this is reflected in the replica.",
			nil, func() float64 { return float64(f.watermark.Load()) })
	}
	return f, nil
}

// Start performs the initial full sync (the cold-restore equivalent:
// dump, checkpoints, consecutive WAL, all through the same tail path) and
// then launches the poll loop on the configured clock. It returns once
// the replica holds everything currently listed.
func (f *Follower) Start(ctx context.Context) error {
	if !f.started.CompareAndSwap(false, true) {
		return errors.New("core: follower already started")
	}
	infos, err := f.io.list(ctx, false)
	if err != nil {
		// Reset started so a failed Start can be retried and so Promote
		// reports ErrNotStarted.
		f.started.Store(false)
		return fmt.Errorf("core: follower initial list: %w", err)
	}
	f.polls.Add(1)
	if err := f.ingestAndApply(ctx, infos, nil); err != nil {
		f.started.Store(false)
		return fmt.Errorf("core: follower initial sync: %w", err)
	}
	f.params.logger().Info("follower started",
		"applied_ts", f.watermark.Load(), "poll_interval", f.params.FollowInterval)
	f.loop.Go(f.tail)
	return nil
}

func (f *Follower) tail() {
	for {
		if simclock.SleepCtx(f.ctx, f.clk, f.params.FollowInterval) != nil {
			return
		}
		start := f.clk.Now()
		infos, err := f.io.list(f.ctx, true)
		if err != nil {
			if f.ctx.Err() != nil {
				return
			}
			// A failed LIST is the cloud being a cloud: count it and let
			// the next tick retry. The poll cadence is the retry policy.
			f.listErrs.Add(1)
			continue
		}
		f.polls.Add(1)
		applied := f.appliedWAL.Load() + f.appliedDB.Load()
		if err := f.ingestAndApply(f.ctx, infos, nil); err != nil {
			if f.ctx.Err() != nil {
				return
			}
			f.fail(err)
			return
		}
		if reg := f.params.Metrics; reg != nil {
			if n := f.appliedWAL.Load() + f.appliedDB.Load() - applied; n > 0 {
				reg.Spans().Record(obs.Span{
					Name: "follower:apply", ID: f.watermark.Load(), Extra: n,
					Start: start, Duration: f.clk.Since(start),
				})
			}
		}
	}
}

// ingestAndApply diffs one listing into the pending queues and drains
// whatever became applicable. bd, when non-nil (Promote), accumulates
// recovery-phase timings and counts.
func (f *Follower) ingestAndApply(ctx context.Context, infos []cloud.ObjectInfo, bd *RecoveryBreakdown) error {
	f.mu.Lock()
	walNew, dbNew, err := f.tracker.observe(infos)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	for _, w := range walNew {
		if w.Ts > f.appliedTs {
			f.pendingWAL[w.Ts] = w
		}
	}
	if len(dbNew) > 0 {
		f.pendingDB = append(f.pendingDB, dbNew...)
		sort.Slice(f.pendingDB, func(i, j int) bool { return f.pendingDB[i].Before(f.pendingDB[j]) })
	}
	f.mu.Unlock()
	if err := f.applyReady(ctx, bd); err != nil {
		return err
	}
	f.mu.Lock()
	if len(f.pendingWAL) == 0 && len(f.pendingDB) == 0 {
		f.caughtUpAt = f.clk.Now()
	}
	f.mu.Unlock()
	return nil
}

// applyReady drains the pending queues in recovery order: DB objects by
// (Ts, Gen) first, then the consecutive WAL run from the applied
// frontier. Applying a DB object with Ts = T advances the frontier to T
// and discards pending WAL ≤ T — exactly the cold-recovery rule that
// replays WAL only past the newest checkpoint. An object that vanished
// between LIST and GET (the primary's GC won the race) is dropped; its
// superseding object is already in, or on its way into, a later listing.
func (f *Follower) applyReady(ctx context.Context, bd *RecoveryBreakdown) error {
	for {
		f.mu.Lock()
		if len(f.pendingDB) > 0 {
			d := f.pendingDB[0]
			f.pendingDB = f.pendingDB[1:]
			outOfOrder := len(f.appliedDBs) > 0 && d.Before(f.appliedDBs[len(f.appliedDBs)-1])
			f.mu.Unlock()
			if _, err := f.io.restore(ctx, f.localFS, d.PartNames(), bd); err != nil {
				if errors.Is(err, cloud.ErrNotFound) {
					continue // GC'd under us: superseded, skip
				}
				return err
			}
			if outOfOrder {
				// A listing revealed an older DB object after a newer one was
				// already applied (read-after-write list lag). Its page images
				// are stale now; re-apply the newer objects on top so the
				// replica ends at the newest applied state again.
				if err := f.reapplyNewerThan(ctx, d, bd); err != nil {
					return err
				}
			}
			f.mu.Lock()
			f.appliedDBs = append(f.appliedDBs, d)
			sort.Slice(f.appliedDBs, func(i, j int) bool { return f.appliedDBs[i].Before(f.appliedDBs[j]) })
			if d.Ts > f.appliedTs {
				f.appliedTs = d.Ts
				f.watermark.Store(d.Ts)
				for ts := range f.pendingWAL {
					if ts <= f.appliedTs {
						delete(f.pendingWAL, ts)
					}
				}
				for ts := range f.appliedWALs {
					if ts <= f.appliedTs {
						delete(f.appliedWALs, ts)
					}
				}
			} else if outOfOrder {
				// The out-of-order apply wrote d's older whole-file images —
				// including its snapshot of the WAL files — and the re-apply
				// above restored only the newer DB objects, not the WAL run
				// applied past them. Roll the frontier back to the newest
				// applied DB Ts and re-queue that run from appliedWALs so the
				// normal drain below replays it; until then the watermark must
				// not claim timestamps the files no longer hold.
				top := f.appliedDBs[len(f.appliedDBs)-1].Ts
				if f.appliedTs > top {
					for ts := top + 1; ts <= f.appliedTs; ts++ {
						if w, ok := f.appliedWALs[ts]; ok {
							f.pendingWAL[ts] = w
						}
					}
					f.appliedTs = top
					f.watermark.Store(top)
				}
			}
			f.mu.Unlock()
			f.appliedDB.Add(1)
			continue
		}
		var run []WALObjectInfo
		for ts := f.appliedTs + 1; ; ts++ {
			w, ok := f.pendingWAL[ts]
			if !ok {
				break
			}
			run = append(run, w)
		}
		f.mu.Unlock()
		if len(run) == 0 {
			return nil
		}
		applied, err := f.applyWALRun(ctx, run, bd)
		f.mu.Lock()
		for _, w := range run[:applied] {
			delete(f.pendingWAL, w.Ts)
			f.appliedWALs[w.Ts] = w
			f.appliedTs = w.Ts
		}
		f.watermark.Store(f.appliedTs)
		f.mu.Unlock()
		f.appliedWAL.Add(int64(applied))
		if err != nil {
			if errors.Is(err, cloud.ErrNotFound) && applied < len(run) {
				// The first unapplied object was GC'd: a checkpoint covering
				// it exists (or is about to be listed) and will skip the
				// frontier past it. Drop it and wait.
				f.mu.Lock()
				delete(f.pendingWAL, run[applied].Ts)
				f.mu.Unlock()
				continue
			}
			return err
		}
	}
}

// reapplyNewerThan replays every already-applied DB object after d, in
// order, restoring the newest-state invariant after an out-of-order apply.
func (f *Follower) reapplyNewerThan(ctx context.Context, d DBObjectInfo, bd *RecoveryBreakdown) error {
	f.mu.Lock()
	var newer []DBObjectInfo
	for _, a := range f.appliedDBs {
		if d.Before(a) {
			newer = append(newer, a)
		}
	}
	f.mu.Unlock()
	for _, a := range newer {
		if _, err := f.io.restore(ctx, f.localFS, a.PartNames(), bd); err != nil && !errors.Is(err, cloud.ErrNotFound) {
			return err
		}
	}
	return nil
}

// applyWALRun fetches and applies a consecutive WAL run, returning how
// many objects of the run's prefix were fully applied before any error.
func (f *Follower) applyWALRun(ctx context.Context, run []WALObjectInfo, bd *RecoveryBreakdown) (int, error) {
	names := make([]string, len(run))
	for i, w := range run {
		names[i] = w.Name()
	}
	applied, err := f.io.restore(ctx, f.localFS, names, bd)
	if bd != nil {
		bd.WALObjects += applied
	}
	return applied, err
}

// Promote turns the warm replica into the live site: it stops the tail
// loop, performs one final catch-up (LIST under the retry policy — an
// ongoing outage is ridden out — then applies the lag), and returns a
// started *Ginja on the warm files, ready for the DBMS to open via FS().
// The whole handoff is O(replication lag): no second LIST, no database
// re-download — the final listing seeds the new instance's CloudView
// directly. The promote RTO is published like any recovery (Mode
// "promote" in Stats.LastRecovery, ginja_recovery_phase_seconds,
// recovery:* and follower:promote spans).
func (f *Follower) Promote(ctx context.Context) (*Ginja, error) {
	if !f.started.Load() {
		return nil, ErrNotStarted
	}
	if !f.promoted.CompareAndSwap(false, true) {
		return nil, errors.New("core: follower already promoted")
	}
	f.cancel()
	f.loop.Wait()
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("core: promote after fatal tail error: %w", err)
	}
	started := f.clk.Now()
	bd := &RecoveryBreakdown{Mode: "promote"}
	t := f.clk.Now()
	infos, err := f.io.list(ctx, false)
	if err != nil {
		return nil, fmt.Errorf("core: promote list: %w", err)
	}
	bd.List = f.clk.Since(t)
	f.polls.Add(1)
	if err := f.ingestAndApply(ctx, infos, bd); err != nil {
		return nil, fmt.Errorf("core: promote catch-up: %w", err)
	}
	g := newGinja(f.localFS, f.io, f.proc, f.params)
	t = f.clk.Now()
	if err := g.view.LoadFromList(infos); err != nil {
		return nil, err
	}
	bd.ViewBuild = f.clk.Since(t)
	t = f.clk.Now()
	files, bytes, err := verifyRestore(f.localFS)
	if err != nil {
		return nil, fmt.Errorf("core: promote verify: %w", err)
	}
	bd.Verify = f.clk.Since(t)
	bd.VerifiedFiles, bd.VerifiedBytes = files, bytes
	if d, ok := g.view.LatestDump(); ok {
		bd.DumpTs = d.Ts
	}
	bd.Total = f.clk.Since(started)
	g.lastRecovery.Store(bd)
	observeRecovery(f.params.Metrics, bd, started)
	if reg := f.params.Metrics; reg != nil {
		reg.Spans().Record(obs.Span{
			Name: "follower:promote", ID: bd.DumpTs, Extra: int64(bd.Objects),
			Start: started, Duration: bd.Total,
		})
	}
	f.params.logger().Info("follower promoted",
		"rto_ms", bd.Total.Milliseconds(), "caught_up_objects", bd.Objects,
		"applied_ts", f.watermark.Load())
	g.start()
	return g, nil
}

// Lag reports how long ago the replica last held everything the bucket
// listed (the ginja_follower_lag_seconds watermark).
func (f *Follower) Lag() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clk.Since(f.caughtUpAt)
}

// Stats returns a snapshot of the follower's activity.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	pending := len(f.pendingWAL)
	lag := f.clk.Since(f.caughtUpAt)
	f.mu.Unlock()
	s := FollowerStats{
		Polls:             f.polls.Load(),
		ListErrors:        f.listErrs.Load(),
		AppliedWALObjects: f.appliedWAL.Load(),
		AppliedDBObjects:  f.appliedDB.Load(),
		AppliedTs:         f.watermark.Load(),
		PendingWAL:        pending,
		Lag:               lag,
		Promoted:          f.promoted.Load(),
	}
	if err := f.Err(); err != nil {
		s.LastError = err.Error()
	}
	return s
}

// Err returns the fatal tail error, if any. Transient LIST failures are
// absorbed (FollowerStats.ListErrors); only unrecoverable conditions — a
// foreign object in the bucket, a failed apply — land here.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

func (f *Follower) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
	f.params.logger().Error("follower tail failed", "err", err)
}

// Close stops the tail loop without promoting. A promoted follower is
// already stopped; Close is then a no-op.
func (f *Follower) Close() error {
	f.cancel()
	f.loop.Wait()
	return f.Err()
}
