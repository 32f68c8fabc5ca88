package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// dbObject is one finished checkpoint, delta or dump awaiting upload. A
// checkpoint carries its collected writes in memory, merged, not joined;
// dumps and deltas carry a part plan whose lazy entries the uploader
// streams from the local files (gated: database writes to the planned
// files are frozen until the plan's reads complete).
type dbObject struct {
	ts     int64
	gen    int
	seq    int64 // queue position (ckptQueue.seq); an absorb keeps it
	typ    DBObjectType
	writes []FileWrite
	plan   [][]planEntry
	// baseTs/baseGen link a Delta object to its chain predecessor.
	baseTs  int64
	baseGen int
	// bufBytes is the in-memory payload this object pins until its upload
	// finishes (the checkpoint-queue memory-pressure gauge).
	bufBytes int64
	// savedBytes is what shipping a delta saved over the full re-dump it
	// replaced (local DB size minus delta payload), counted into
	// Stats.CheckpointBytesSaved once the delta is durable.
	savedBytes int64
	hold       *gateHold
}

// gateHold is one dump/delta upload's claim on the dump gate: writes to
// the covered paths block until the plan's local reads complete. A nil
// paths set covers every path (conservative hold).
type gateHold struct {
	paths map[string]struct{}
}

func (h *gateHold) covers(path string) bool {
	if h.paths == nil {
		return true
	}
	_, ok := h.paths[path]
	return ok
}

// checkpointStats are the checkpoint-path counters.
type checkpointStats struct {
	checkpoints atomic.Int64
	dumps       atomic.Int64
	deltas      atomic.Int64
	absorbed    atomic.Int64 // checkpoint ends shipped inside a later object
	dbObjects   atomic.Int64 // uploaded parts
	dbBytes     atomic.Int64 // sealed bytes
	walDeleted  atomic.Int64
	dbDeleted   atomic.Int64
	// bytesSaved is the cumulative payload a delta shipped instead of the
	// full re-dump the 150 % rule would otherwise have triggered.
	bytesSaved atomic.Int64
	// gateBlockedNanos is the cumulative time DBMS writes spent blocked on
	// the dump gate (only writes actually covered by a hold count).
	gateBlockedNanos atomic.Int64
}

// checkpointer implements Algorithm 3: collect the writes of a local
// checkpoint as they happen, and when the checkpoint finishes locally,
// ship them to the cloud from a separate thread (decoupling the DBMS's
// checkpoint from the upload, §5.3), then garbage-collect superseded
// objects.
type checkpointer struct {
	localFS vfs.FS
	proc    dbevent.Processor
	view    *CloudView
	io      *cloudIO
	params  Params
	clk     simclock.Clock

	mu         sync.Mutex
	collecting bool
	tsAtBegin  int64
	writes     []FileWrite

	// The upload queue (DESIGN.md §19, ckptqueue.go): q changes only through
	// step, under qMu. qCh closes on every wake; queued mirrors q.depth() for
	// the depth gauge; uploading cancels the checkpoint the loop uploads.
	qMu       sync.Mutex
	q         ckptQueue
	qCh       chan struct{}
	queued    atomic.Int64
	uploading context.CancelCauseFunc

	ctx    context.Context
	cancel context.CancelFunc
	loop   *simclock.Group // the upload loop (the CheckpointThread)

	// uploader streams part plans to the cloud with bounded memory.
	uploader *partUploader

	// bufBytes is the in-memory payload currently collected or queued for
	// upload (Stats.CheckpointBytesBuffered / ginja_checkpoint_queue_bytes).
	bufBytes atomic.Int64

	// The dump gate: while a hold is active, database writes to the files
	// that hold's plan reads lazily block in Ginja.OnBeforeWrite — a
	// streaming dump or delta is reading the planned ranges, and those
	// files must not move under it (§5.3: Ginja stops local DB writes
	// during dump creation). Each hold carries the path set its plan
	// covers, so writes to files outside any active plan sail through.
	// Acquired on the DBMS thread when the plan is cut, released by the
	// uploader as soon as the plan's local reads complete (the PUTs may
	// still be running).
	gateMu    sync.Mutex
	gateHolds map[*gateHold]struct{}
	gateCh    chan struct{}

	// dirty tracks the byte ranges dirtied per file since the last chain
	// element (dump or delta); nil unless Params.DeltaCheckpoints.
	dirty *dirtyMap

	// What the view cannot know of the chain (its tip and length are the
	// view's: chain). chainValid: THIS process planned it while the dirty
	// map was live — a rebooted process starts invalid (its dirty map missed
	// whatever the previous incarnation wrote) and re-validates with its
	// first full dump. chainBytes: the deltas' summed raw payload since it.
	chainValid atomic.Bool
	chainBytes atomic.Int64

	stats   checkpointStats
	metrics *checkpointMetrics

	// trimSlot serializes trims (trimRetention); it is a one-slot channel,
	// not a mutex, because a trim holds it across cloud I/O and a trimmer
	// waiting for it must park like any other clock wait.
	trimSlot chan struct{}

	// Trimmer tick state: the periodic retention trim is driven by a
	// clock func timer (one entry on the shared tick wheel in fleet mode,
	// a runtime timer otherwise) instead of a dedicated sleeper goroutine,
	// so N instances cost N heap entries, not N goroutines. The timer
	// callback only spawns the transient trim goroutine — cloud I/O never
	// runs where the timer fires.
	trimTickMu   sync.Mutex
	trimTimer    simclock.Timer // nil unless Params.RetainFor > 0
	trimInterval time.Duration
	trims        *simclock.Group

	errMu sync.Mutex
	err   error
}

func newCheckpointer(localFS vfs.FS, proc dbevent.Processor, view *CloudView,
	io *cloudIO, params Params, tracker *streamTracker) *checkpointer {
	// Everything the CheckpointThread issues — DB-object parts, GC and
	// retention-trim DELETEs — is Bulk: tagged once, here.
	ctx, cancel := context.WithCancel(withClass(context.Background(), classBulk))
	clk := params.clock()
	c := &checkpointer{
		localFS:   localFS,
		proc:      proc,
		view:      view,
		io:        io,
		params:    params,
		clk:       clk,
		metrics:   newCheckpointMetrics(params.Metrics),
		gateHolds: make(map[*gateHold]struct{}),
		ctx:       ctx,
		cancel:    cancel,
		loop:      simclock.NewGroup(clk),
		trims:     simclock.NewGroup(clk),
		trimSlot:  make(chan struct{}, 1),
		q:         ckptQueue{window: int64(params.CheckpointUploaders) * params.MaxObjectSize},
	}
	if params.DeltaCheckpoints {
		c.dirty = newDirtyMap()
	}
	c.uploader = &partUploader{fs: localFS, io: io, tracker: tracker}
	if c.metrics != nil {
		c.uploader.sealHist = c.metrics.sealPart
		c.uploader.putHist = c.metrics.partPut
	}
	return c
}

// acquireGate freezes database writes to the given path set (nil freezes
// everything) and returns the hold; holds nest if a second plan is cut
// before the first one's reads finish.
func (c *checkpointer) acquireGate(paths map[string]struct{}) *gateHold {
	h := &gateHold{paths: paths}
	c.gateMu.Lock()
	c.gateHolds[h] = struct{}{}
	if c.gateCh == nil {
		c.gateCh = make(chan struct{})
	}
	c.gateMu.Unlock()
	return h
}

// releaseGate drops one hold; every release wakes the blocked writers so
// they can re-evaluate which holds still cover them.
func (c *checkpointer) releaseGate(h *gateHold) {
	c.gateMu.Lock()
	delete(c.gateHolds, h)
	if c.gateCh != nil {
		simclock.Close(c.clk, c.gateCh)
		c.gateCh = nil
	}
	c.gateMu.Unlock()
}

// waitGate blocks the calling (DBMS) thread while any active hold covers
// path, and records the blocked time when it actually blocked. A
// cancelled checkpointer (shutdown or fatal replication error) never
// blocks writers: the database keeps running locally even when
// replication is gone.
func (c *checkpointer) waitGate(path string) {
	var blockedFrom time.Time
	for {
		c.gateMu.Lock()
		covered := false
		for h := range c.gateHolds {
			if h.covers(path) {
				covered = true
				break
			}
		}
		if !covered {
			c.gateMu.Unlock()
			if !blockedFrom.IsZero() {
				d := c.clk.Since(blockedFrom)
				c.stats.gateBlockedNanos.Add(int64(d))
				if c.metrics != nil {
					c.metrics.gateBlocked.ObserveDuration(d)
				}
			}
			return
		}
		if c.gateCh == nil {
			c.gateCh = make(chan struct{})
		}
		ch := c.gateCh
		c.gateMu.Unlock()
		if blockedFrom.IsZero() {
			blockedFrom = c.clk.Now()
		}
		if _, _, err := simclock.Recv(c.ctx, c.clk, ch); err != nil {
			return
		}
	}
}

func (c *checkpointer) start() {
	if reg := c.params.Metrics; reg != nil {
		reg.GaugeFunc(metricCkptQueueLen,
			"Finished checkpoints/dumps awaiting upload by the CheckpointThread.",
			nil, func() float64 { return float64(c.queued.Load()) })
		reg.GaugeFunc(metricCkptQueueBytes,
			"In-memory payload bytes collected or queued on the checkpoint path (memory pressure while blocked on uploads).",
			nil, func() float64 { return float64(c.bufBytes.Load()) })
		if c.params.DeltaCheckpoints {
			reg.GaugeFunc(metricDeltaChainLen,
				"Length of the current delta chain (deltas since the last full base dump).",
				nil, func() float64 { return float64(c.deltaChainLen()) })
		}
	}
	c.loop.Go(func() {
		for ev := (qEvent{kind: evDone}); ; { // nothing held yet: done stays 0
			obj, ctx, ok := c.next(ev)
			if !ok {
				return
			}
			ev = c.upload(ctx, &obj)
		}
	})
	if c.params.RetainFor > 0 {
		// Background trimmer: enforce the retention window even when no
		// dump happens to run GC — a quiet database must still converge to
		// its bounded chain.
		c.trimInterval = c.params.RetainFor / 4
		if c.trimInterval <= 0 {
			c.trimInterval = time.Second
		}
		c.trimTimer = c.clk.NewFuncTimer(c.onTrimTick)
		c.armTrimTick()
	}
}

// armTrimTick schedules the next retention trim, unless the checkpointer
// has been stopped (stop and fail both cancel ctx).
func (c *checkpointer) armTrimTick() {
	c.trimTickMu.Lock()
	defer c.trimTickMu.Unlock()
	if c.ctx.Err() == nil {
		c.trimTimer.Reset(c.trimInterval)
	}
}

// onTrimTick is the timer callback. It must stay brief (it may run on a
// shared tick wheel), so the trim itself — cloud deletes with retries —
// runs on a transient goroutine tracked by trimWG.
func (c *checkpointer) onTrimTick() {
	c.trimTickMu.Lock()
	defer c.trimTickMu.Unlock()
	if c.ctx.Err() != nil {
		return
	}
	c.trims.Go(func() {
		if err := c.trimRetention(nil); err != nil {
			// stop() cancelling the context mid-trim is a clean
			// shutdown, not a checkpointer failure (mirrors the
			// follower's loop).
			if c.ctx.Err() == nil {
				c.fail(err)
			}
			return
		}
		c.armTrimTick()
	})
}

// stopTrimTick runs after ctx is cancelled: the pending timer is disarmed
// and any in-flight trim is waited out (it returns promptly). trimTickMu
// orders this against a tick that is just starting a trim.
func (c *checkpointer) stopTrimTick() {
	c.trimTickMu.Lock()
	if c.trimTimer != nil {
		c.trimTimer.Stop()
	}
	c.trimTickMu.Unlock()
	c.trims.Wait()
}

// stop flushes the queue (bounded by timeout) and terminates the
// CheckpointThread. If the drain cannot finish — e.g. the cloud is gone
// and retries are unbounded — the timeout cancels the context so the
// upload loop exits instead of hanging shutdown forever.
func (c *checkpointer) stop(timeout time.Duration) error {
	c.qMu.Lock()
	c.stepLocked(qEvent{kind: evClose})
	c.qMu.Unlock()
	t := c.clk.NewFuncTimer(c.cancel)
	t.Reset(timeout)
	c.loop.Wait()
	t.Stop()
	c.cancel()
	c.stopTrimTick()
	return c.lastErr()
}

// handle processes one classified checkpoint event on the DBMS thread
// (Algorithm 3 lines 3-16).
func (c *checkpointer) handle(ev dbevent.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Type {
	case dbevent.CheckpointBegin:
		// ts = timestamp of the last WAL object allocated before the
		// checkpoint began (line 5), taken by a cut. Re-stamp even when
		// an implicit collection (stray data writes such as table
		// creation) is already open: the checkpoint flushes every page
		// dirtied by commits that completed before this event, so all
		// WAL timestamps allocated up to now are covered — and the stray
		// writes themselves carry no WAL dependency.
		c.collecting = true
		c.tsAtBegin = c.view.cut()
		c.appendWriteLocked(ev)
	case dbevent.CheckpointData:
		if !c.collecting {
			// Data write outside a detected checkpoint (e.g. a table
			// created mid-run): open an implicit collection so the write
			// still reaches the cloud with the next checkpoint.
			c.collecting = true
			c.tsAtBegin = c.view.cut()
		}
		c.appendWriteLocked(ev)
	case dbevent.CheckpointEnd:
		c.appendWriteLocked(ev)
		c.finalizeLocked()
	}
}

func (c *checkpointer) appendWriteLocked(ev dbevent.Event) {
	data := make([]byte, len(ev.Data))
	copy(data, ev.Data)
	c.writes = append(c.writes, FileWrite{Path: ev.Path, Offset: ev.Offset, Data: data})
	c.bufBytes.Add(int64(len(data)))
	// Every collected write also dirties its page range: the dirty map is
	// fed here — off the commit hot path — so the next delta covers every
	// byte the superseded checkpoints carried.
	c.dirty.markWrite(ev.Path, ev.Offset, int64(len(ev.Data)))
}

// handleTruncate records a truncate of a replicated file: byte ranges
// cannot express a shrink, so the next delta recaptures the file whole.
func (c *checkpointer) handleTruncate(path string) {
	c.dirty.markWhole(path)
}

// finalizeLocked closes the collection, decides dump vs incremental (the
// 150 % rule, lines 9-13) and hands the object to the queue (DESIGN.md
// §19), which merges it into the open checkpoint, the union being what the
// rule weighs, or queues it. An end is two steps: a snapshot of the open
// checkpoint and the guard, then a commit. qMu is released between them
// while the union is merged and the rule runs, so the loop may take the
// open checkpoint meanwhile; step then has the end rebuild.
func (c *checkpointer) finalizeLocked() {
	rawBytes := estimateSize(c.writes)
	defer c.bufBytes.Add(-rawBytes)
	ws := c.writes
	c.writes = nil
	c.collecting = false
	if c.ctx.Err() != nil { // stopped or failed: nothing will upload it
		return
	}

	gen := c.view.reserveDBGen(c.tsAtBegin)
	c.qMu.Lock()
	defer c.qMu.Unlock()
	for ev := (qEvent{kind: evSnapshot}); ; {
		a, ok := c.driveLocked(c.ctx, ev)
		if !ok || a.kind != actSnapshot { // queued, or stopped: nothing will upload it
			return
		}
		in := ws
		if a.obj.seq != 0 {
			in = slices.Concat(a.obj.writes, ws)
		}
		c.qMu.Unlock()
		obj, ok := c.endObject(in, gen, a.rule)
		c.qMu.Lock()
		if !ok {
			return
		}
		ev = qEvent{kind: evCommit, obj: obj, base: a.obj.seq}
	}
}

// endObject merges an end's writes into the checkpoint it ships as and,
// if rule, applies the 150 % rule to it: a crossing returns the chain
// element planned in its place instead. False if sizing or planning failed
// (the checkpointer has failed).
func (c *checkpointer) endObject(in []FileWrite, gen int, rule bool) (dbObject, bool) {
	merged := new(mergeScratch).merge(in, false)
	obj := dbObject{ts: c.tsAtBegin, gen: gen, typ: Checkpoint, writes: merged, bufBytes: estimateSize(merged)}
	if !rule {
		return obj, true
	}
	localSize, err := c.localDBSize()
	if err != nil {
		c.fail(fmt.Errorf("core: sizing local database: %w", err))
		return obj, false
	}
	if float64(c.view.TotalDBSize()+obj.bufBytes) < c.params.DumpThreshold*float64(localSize) {
		return obj, true
	}
	// Plan synchronously: the DBMS is inside its checkpoint-end write, so no
	// file write races us. Bytes stream at upload, under the gate (§5.3).
	buildStart := c.clk.Now()
	elem, err := c.planChainElement(c.tsAtBegin, gen, localSize)
	if err != nil {
		c.fail(fmt.Errorf("core: planning %s: %w", elem.typ, err))
		return elem, false
	}
	if c.metrics != nil {
		c.metrics.build.ObserveDuration(c.clk.Since(buildStart))
	}
	return elem, true
}

// stepLocked runs ev through step and does the actions that concern no
// caller: queue bytes, absorbs, the crossing's cancel and wakes. It returns
// the action meant for the caller, if any. An absorbed checkpoint is
// abandoned in the view, which records the parts it tried to PUT as orphans
// and drops its generation reservation. Nothing here may reach the metrics
// registry (the absorb counters are registered up front): the export holds
// the registry's lock while it samples the queue gauges.
func (c *checkpointer) stepLocked(ev qEvent) (reply qAction) {
	var acts []qAction
	c.q, acts = step(c.q, ev)
	for _, a := range acts {
		switch a.kind {
		case actQueued:
			c.bufBytes.Add(a.obj.bufBytes)
		case actAbsorb:
			if a.queued {
				c.bufBytes.Add(-a.obj.bufBytes)
			}
			c.view.abandon(a.obj.ts, a.obj.gen, a.tried)
			c.stats.absorbed.Add(1)
			if c.metrics != nil {
				c.metrics.absorbed[a.into].Inc()
			}
		case actCancel:
			if c.uploading != nil { // nil once the loop failed
				c.uploading(superseded{a.into})
			}
		case actWake:
			c.queued.Store(c.q.depth())
			if c.qCh != nil {
				simclock.Close(c.clk, c.qCh)
				c.qCh = nil
			}
		default:
			reply = a
		}
	}
	return reply
}

// superseded is the cause a crossing cancels the uploading checkpoint
// with: the chain element queued behind it, of type into, covers it.
type superseded struct{ into DBObjectType }

func (s superseded) Error() string { return "core: checkpoint superseded by a " + string(s.into) }

// next reports how the loop's last object ended (ev) and hands the loop
// the next one, a checkpoint under a context a crossing cancels; false
// once stopped and drained, or failed.
func (c *checkpointer) next(ev qEvent) (dbObject, context.Context, bool) {
	c.qMu.Lock()
	defer c.qMu.Unlock()
	if c.uploading != nil {
		c.uploading(nil)
		c.uploading = nil
	}
	if a := c.stepLocked(ev); a.kind == actExit {
		return dbObject{}, nil, false
	}
	a, _ := c.driveLocked(context.Background(), qEvent{kind: evNext})
	if a.kind == actExit {
		return dbObject{}, nil, false
	}
	ctx := c.ctx
	if a.obj.typ == Checkpoint {
		ctx, c.uploading = context.WithCancelCause(c.ctx)
	}
	return a.obj, ctx, true
}

// driveLocked offers ev until step stops answering wait, parking between
// offers, qMu released, until the queue changes; false if ctx ends first.
func (c *checkpointer) driveLocked(ctx context.Context, ev qEvent) (qAction, bool) {
	for {
		a := c.stepLocked(ev)
		if a.kind != actWait {
			return a, true
		}
		if c.qCh == nil {
			c.qCh = make(chan struct{})
		}
		ch := c.qCh
		c.qMu.Unlock()
		_, _, err := simclock.Recv(ctx, c.clk, ch)
		c.qMu.Lock()
		if err != nil {
			return a, false
		}
	}
}

// planChainElement serves one DumpThreshold crossing: a delta when the
// chain can safely absorb one more element, a full dump otherwise. The
// fold decision (Algorithm 3 line 9's re-dump, bounded BtrLog-style): a
// full dump is emitted when there is no live chain this process owns,
// when the chain would exceed MaxDeltaChain elements, or when its summed
// payload plus this delta would exceed DeltaCompactRatio of the local
// database size. Either way the dirty epoch resets — the new element
// covers everything recorded so far. The delta's base is the chain tip of
// the view's live set: the rule runs only while no chain element is in
// flight (ckptQueue.elemInFlight), so the last one has landed.
func (c *checkpointer) planChainElement(ts int64, gen int, localSize int64) (dbObject, error) {
	budget := partBudget(c.params.MaxObjectSize)
	tip, chainLen, ok := c.chain()
	if ok && chainLen+1 <= c.params.MaxDeltaChain {
		plan, err := planDelta(c.localFS, c.proc, c.dirty.snapshotAndReset(), budget)
		if err != nil {
			return dbObject{typ: Delta}, err
		}
		deltaBytes, inMem := planBytes(plan)
		if float64(c.chainBytes.Load()+deltaBytes) <= c.params.DeltaCompactRatio*float64(localSize) {
			obj := dbObject{ts: ts, gen: gen, typ: Delta, plan: plan,
				baseTs: tip.Ts, baseGen: tip.Gen,
				bufBytes: inMem, savedBytes: localSize - deltaBytes}
			if obj.savedBytes < 0 {
				obj.savedBytes = 0
			}
			obj.hold = c.acquireGate(planLazyPaths(plan))
			c.chainBytes.Add(deltaBytes)
			return obj, nil
		}
		// The chain would outgrow the compact ratio: fold. The consumed
		// dirty epoch is covered by the full dump below.
	}
	plan, err := planDump(c.localFS, c.proc, budget)
	if err != nil {
		return dbObject{typ: Dump}, err
	}
	if c.dirty != nil {
		c.dirty.snapshotAndReset()
	}
	_, inMem := planBytes(plan)
	obj := dbObject{ts: ts, gen: gen, typ: Dump, plan: plan, bufBytes: inMem}
	obj.hold = c.acquireGate(planLazyPaths(plan))
	c.chainValid.Store(c.dirty != nil)
	c.chainBytes.Store(0)
	return obj, nil
}

// deltaChainLen reports the landed chain's length (deltas since the base
// dump) for Stats and the gauge; 0 while this process owns none.
func (c *checkpointer) deltaChainLen() int {
	_, n, _ := c.chain()
	return n
}

// chain reads the chain this process extends from the view's live set: its
// newest element and how many deltas it holds past the root dump. ok is
// false while the process owns no chain (chainValid) or none is listed.
func (c *checkpointer) chain() (tip DBObjectInfo, deltas int, ok bool) {
	if !c.chainValid.Load() {
		return tip, 0, false
	}
	db, _, err := live(c.view.DBObjects(), nil, -1)
	for _, d := range db {
		if d.Type != Checkpoint {
			tip = d
		}
		if d.Type == Delta {
			deltas++
		}
	}
	return tip, deltas, err == nil
}

// localDBSize sums the sizes of all data-class files (the "local DB size"
// of the 150 % rule).
func (c *checkpointer) localDBSize() (int64, error) {
	files, err := vfs.Walk(c.localFS, "")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range files {
		if c.proc.FileKind(p) != dbevent.KindData {
			continue
		}
		fi, err := c.localFS.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// upload runs on the CheckpointThread (Algorithm 3 lines 17-29): stream
// the DB object's part plan — each ≤ MaxObjectSize part independently
// encoded, sealed and PUT by up to CheckpointUploaders workers, so
// resident memory stays bounded by the uploader window, not the database
// size — record it, then delete what it supersedes (CloudView.supersede)
// subject to the point-in-time retention policy. It returns how the upload
// ended, as the queue's event.
// The view learns about the object only after every part is durable, so a
// failure mid-upload leaves at most orphan parts in the bucket; after a
// restart, LoadFromList records them as orphans (never surfacing them to
// recovery) and the next chain element's GC sweep deletes them. A
// checkpoint a crossing supersedes before it lands hands the queue the
// parts it tried, which records them as orphans at once.
func (c *checkpointer) upload(ctx context.Context, obj *dbObject) qEvent {
	defer c.bufBytes.Add(-obj.bufBytes)
	var gateOnce sync.Once
	release := func() {
		if obj.hold != nil {
			gateOnce.Do(func() { c.releaseGate(obj.hold) })
		}
	}
	defer release()
	failed := func(err error) qEvent {
		c.fail(err)
		return qEvent{kind: evFailed}
	}
	uploadStart := c.clk.Now()
	// The plan is the only holder of the object's bytes from here on, and
	// the uploader drops them as it seals.
	parts := obj.plan
	if parts == nil {
		parts = planParts(entriesFromWrites(obj.writes), partBudget(c.params.MaxObjectSize))
	}
	nparts := len(parts)
	obj.writes, obj.plan = nil, nil
	ident := DBObjectInfo{Ts: obj.ts, Gen: obj.gen, Type: obj.typ,
		BaseTs: obj.baseTs, BaseGen: obj.baseGen}
	info, tried, err := c.uploader.upload(ctx, ident, parts, release, nil)
	if _, ok := context.Cause(ctx).(superseded); ok && err != nil {
		return qEvent{kind: evSuperseded, tried: tried}
	}
	if err != nil {
		return failed(err)
	}
	size := info.Size
	// Durable-data counters move only once the whole object landed: a
	// sibling part failure abandons the object, and parts that did make it
	// are orphans, not durable data.
	c.stats.dbObjects.Add(int64(nparts))
	c.stats.dbBytes.Add(size)
	if c.metrics != nil {
		c.metrics.dbObjects.Add(float64(nparts))
		c.metrics.dbBytes.Add(float64(size))
	}
	if err := c.view.AddDB(info); err != nil {
		return failed(err)
	}
	switch obj.typ {
	case Dump:
		c.stats.dumps.Add(1)
	case Delta:
		c.stats.deltas.Add(1)
		c.stats.bytesSaved.Add(obj.savedBytes)
	default:
		c.stats.checkpoints.Add(1)
	}
	if m := c.metrics; m != nil {
		l := m.landed[obj.typ]
		l.objects.Inc()
		l.bytes.Add(float64(size))
		l.upload.ObserveDuration(c.clk.Since(uploadStart))
	}
	c.params.logger().Info("db object uploaded",
		"type", string(obj.typ), "ts", obj.ts, "gen", obj.gen,
		"bytes", size, "parts", nparts)

	// Garbage collection (lines 23-29): the view stamps what this object
	// supersedes, then the trim deletes what is due — without a retention
	// window everything stamped; with one, what keeps the RetainObjects cap
	// between trimmer ticks and any window that has closed. A chain element
	// also sweeps the orphan parts.
	c.view.supersede(c.clk.Now())
	var orphans []OrphanPart
	if obj.typ != Checkpoint { // its victims have left TotalDBSize: the rule may run again
		c.qMu.Lock()
		c.stepLocked(qEvent{kind: evLanded})
		c.qMu.Unlock()
		orphans = c.view.OrphanParts()
	}
	if err := c.trimRetention(orphans); err != nil {
		return failed(err)
	}
	return qEvent{kind: evDone}
}

// sweep deletes victims and orphan parts through the seam's one bounded
// DELETE pool. Every name — a DB victim's parts included — goes into one
// flat work list so the pool stays saturated across object boundaries.
// Each success is recorded as it happens, and a victim leaves the view
// only once its last part is gone, so an interrupted sweep leaves the view
// conservative (object still listed, the next sweep retries). Orphan parts
// — leftovers of uploads a previous incarnation never finished, recorded
// at LoadFromList time — ride the same list; they were never in the view,
// so success just drops the orphan record.
func (c *checkpointer) sweep(victims []gcVictim, orphans []OrphanPart) error {
	var names []string
	var owner []int // index into victims; -1 = orphan part
	remaining := make([]atomic.Int64, len(victims))
	for vi, v := range victims {
		remaining[vi].Store(int64(len(v.names)))
		for _, name := range v.names {
			names = append(names, name)
			owner = append(owner, vi)
		}
	}
	for _, o := range orphans {
		names = append(names, o.Name)
		owner = append(owner, -1)
	}
	err := c.io.deleteAll(c.ctx, names, func(i int) {
		vi := owner[i]
		if vi < 0 {
			c.view.DropOrphan(names[i])
			return
		}
		if remaining[vi].Add(-1) > 0 {
			return
		}
		v := victims[vi]
		if v.db == nil {
			c.view.DeleteWAL(v.walTs)
			c.stats.walDeleted.Add(1)
			if c.metrics != nil {
				c.metrics.walDeleted.Inc()
			}
		} else {
			c.view.DeleteDB(v.db.Ts, v.db.Gen)
			c.stats.dbDeleted.Add(1)
			if c.metrics != nil {
				c.metrics.dbDeleted.Inc()
			}
		}
	})
	if err == nil && len(names) > 0 {
		c.params.logger().Debug("garbage-collected WAL objects and DB parts",
			"objects", len(victims), "orphan_parts", len(orphans))
	}
	return err
}

// trimRetention deletes the stamped objects the view reports expired —
// their RetainFor window closed, or over the RetainObjects cap — plus the
// given orphan parts. Runs from the background trimmer and inline after
// each landing; trimSlot keeps the two from racing each other.
func (c *checkpointer) trimRetention(orphans []OrphanPart) error {
	simclock.Send(context.Background(), c.clk, c.trimSlot, struct{}{}) //nolint:errcheck // Background never ends
	defer simclock.Recv(context.Background(), c.clk, c.trimSlot)       //nolint:errcheck
	victims := c.view.expired(c.clk.Now(), c.params.RetainFor, c.params.RetainObjects)
	if len(victims)+len(orphans) == 0 {
		return nil
	}
	return c.sweep(victims, orphans)
}

// sync blocks until every object queued so far is uploaded, recorded and
// swept — so every checkpoint that ended before the call is durable, or
// merged into or superseded by an object that landed — or until the
// timeout (false). A failed checkpointer returns false immediately: its
// queue will never drain.
func (c *checkpointer) sync(timeout time.Duration) bool {
	ctx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	t := c.clk.NewFuncTimer(cancel)
	t.Reset(timeout)
	defer t.Stop()
	c.qMu.Lock()
	defer c.qMu.Unlock()
	_, ok := c.driveLocked(ctx, qEvent{kind: evSync, base: c.q.seq})
	return ok
}

func (c *checkpointer) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.cancel()
}

func (c *checkpointer) lastErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

func estimateSize(writes []FileWrite) int64 {
	var n int64
	for _, w := range writes {
		n += int64(len(w.Data))
	}
	return n
}
