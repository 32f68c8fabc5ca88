package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Follower is the warm-standby half of disaster recovery, in the spirit of
// Taurus's log-is-the-database replicas: it continuously tails the cloud
// bucket into a warm local replica, so that Promote finishes recovery in
// O(replication lag) instead of O(database size).
//
// Its apply is recovery run continuously, not a second algorithm. Each
// poll diffs one LIST through a listTracker into the follower's own
// CloudView and asks live — the walk cold recovery uses — for the newest
// state. The replica keeps the longest prefix of the plan's DB objects it
// already holds and fetches the rest through cloudIO.restore: when every
// planned DB object is in place, only the WAL run past the applied
// frontier; otherwise the DB suffix and the whole run. A first poll is
// therefore exactly a cold recovery, and an older object listed late
// (read-after-write list lag) is just a different plan, whose newer objects
// and WAL run replay by construction. After each plan the view forgets
// what the primary's GC rule stamps (CloudView.supersede), so it holds
// live(-1) and the WAL past it: a poll costs the live bucket, not the
// history the follower has seen.
//
// Lifecycle: NewFollower → Start (initial sync + tail loop) → either
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

	// The apply state belongs to the one goroutine polling (Start, then the
	// tail loop, then Promote once the loop stopped): the LIST tracker, the
	// view it feeds, and the DB objects of the plan the replica holds, in
	// plan order.
	tracker *listTracker
	view    *CloudView
	applied []DBObjectInfo

	// mu guards what Stats and the lag gauge read.
	mu         sync.Mutex
	pendingWAL int       // listed WAL objects past the frontier after the last poll
	caughtUpAt time.Time // last instant the replica held everything listed

	polls      atomic.Int64
	listErrs   atomic.Int64
	appliedWAL atomic.Int64
	appliedDB  atomic.Int64
	watermark  atomic.Int64 // the WAL frontier: every ts ≤ this is reflected locally

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
		localFS: localFS,
		io:      io,
		proc:    proc,
		params:  params,
		clk:     clk,
		ctx:     ctx,
		cancel:  cancel,
		loop:    simclock.NewGroup(clk),
		tracker: newListTracker(0),
		view:    NewCloudView(),
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

// Start performs the initial sync — the first poll, which is a cold
// recovery's plan — and then launches the poll loop on the configured
// clock. It returns once the replica holds everything currently listed; a
// bucket with no dump yet (a primary that has not booted) leaves the
// replica empty until a later poll lists one.
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
	if _, err := f.poll(ctx, infos, nil); err != nil {
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
		if _, err := f.poll(f.ctx, infos, nil); err != nil {
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

// poll is one catch-up: diff the listing into the view, plan the newest
// state, and apply what of the plan the replica does not hold yet. bd,
// when non-nil (Promote), accumulates recovery-phase timings and counts.
// With no dump listed there is nothing to build on, and the poll waits
// for a later listing. A GET that finds its object gone (the primary's GC
// won the race between LIST and GET) ends the poll with what it completed:
// the object is forgotten, so the next plan routes around it, and complete
// is false.
func (f *Follower) poll(ctx context.Context, infos []cloud.ObjectInfo, bd *RecoveryBreakdown) (complete bool, err error) {
	walNew, dbNew, err := f.tracker.observe(infos)
	if err != nil {
		return false, err
	}
	for _, w := range walNew {
		f.view.AddWAL(w)
	}
	for _, d := range dbNew {
		if err := f.view.AddDB(d); err != nil {
			return false, err
		}
	}
	dbs, wals := f.view.DBObjects(), f.view.WALObjects()
	db, run, err := live(dbs, wals, -1)
	if err != nil { // ErrNoDump, the only error of an unbounded plan
		f.settle(len(wals), len(dbs)+len(wals) == 0)
		return true, nil
	}
	// Forget what the GC rule stamps: no later plan needs it.
	now := f.clk.Now()
	f.view.supersede(now)
	for _, gone := range f.view.expired(now, 0, 0) {
		f.forget(gone.names[0])
	}

	k := 0
	for k < len(db) && k < len(f.applied) && db[k].Ts == f.applied[k].Ts && db[k].Gen == f.applied[k].Gen {
		k++
	}
	frontier := f.watermark.Load()
	if k < len(db) || k < len(f.applied) {
		// The replica parts from the plan at k: everything after — the DB
		// suffix and the whole WAL run — applies again.
		f.applied, frontier = f.applied[:k], 0
		if k > 0 {
			frontier = f.applied[k-1].Ts
		}
	}
	for len(run) > 0 && run[0].Ts <= frontier {
		run = run[1:]
	}
	n, err := f.io.restore(ctx, f.localFS, planNames(db[k:], run), bd)
	for _, d := range db[k:] {
		parts := len(d.PartNames())
		if n < parts {
			n = 0 // cut short inside a DB object: no WAL landed after it
			break
		}
		n -= parts
		f.applied = append(f.applied, d)
		frontier = d.Ts
	}
	if n > 0 {
		frontier = run[n-1].Ts
	}
	f.watermark.Store(frontier)
	f.appliedDB.Add(int64(len(f.applied) - k))
	f.appliedWAL.Add(int64(n))
	if bd != nil {
		bd.WALObjects += n
	}
	if err != nil {
		var gone *fetchError
		if !errors.As(err, &gone) || !errors.Is(err, cloud.ErrNotFound) {
			return false, err
		}
		f.forget(gone.name)
	}
	pending := 0
	for _, w := range wals {
		if w.Ts > frontier {
			pending++
		}
	}
	f.settle(pending, err == nil && pending == 0)
	return err == nil, nil
}

// forget drops an object the bucket no longer holds from the view.
func (f *Follower) forget(name string) {
	if ts, _, _, err := ParseWALObjectName(name); err == nil {
		f.view.DeleteWAL(ts)
	} else if n, err := ParseDBObjectName(name); err == nil {
		f.view.DeleteDB(n.Ts, n.Gen)
	}
}

// settle publishes a poll's outcome to Stats and the lag gauge.
func (f *Follower) settle(pending int, caughtUp bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pendingWAL = pending
	if caughtUp {
		f.caughtUpAt = f.clk.Now()
	}
}

// Promote turns the warm replica into the live site: it stops the tail
// loop, performs one final catch-up (LIST under the retry policy — an
// ongoing outage is ridden out — then applies the lag), and returns a
// started *Ginja on the warm files, ready for the DBMS to open via FS().
// The whole handoff is O(replication lag): no second LIST, no database
// re-download — the final listing seeds the new instance's CloudView
// directly. The promote RTO is timed and published by the same recovery
// sequence as Recover (Mode "promote" in Stats.LastRecovery,
// ginja_recovery_phase_seconds, recovery:* spans), plus a follower:promote
// span. With no dump ever listed there is nothing to promote, and Promote
// fails with ErrNoDump.
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
	g := newGinja(f.localFS, f.io, f.proc, f.params)
	bd := &RecoveryBreakdown{Mode: "promote"}
	if err := g.recoverInto(ctx, g.view, f.localFS, bd, func(infos []cloud.ObjectInfo) error {
		f.polls.Add(1)
		// There is no next poll to finish what a GC race cut short: re-plan
		// from the same listing until a poll completes (each retry forgets
		// one object, so this ends).
		for complete := false; !complete; {
			var err error
			if complete, err = f.poll(ctx, infos, bd); err != nil {
				return fmt.Errorf("core: promote catch-up: %w", err)
			}
		}
		if len(f.applied) == 0 {
			return fmt.Errorf("core: promote catch-up: %w", ErrNoDump)
		}
		bd.DumpTs = f.applied[0].Ts
		return nil
	}); err != nil {
		return nil, err
	}
	if reg := f.params.Metrics; reg != nil {
		reg.Spans().Record(obs.Span{
			Name: "follower:promote", ID: bd.DumpTs, Extra: int64(bd.Objects),
			Start: f.clk.Now().Add(-bd.Total), Duration: bd.Total,
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
	pending := f.pendingWAL
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
