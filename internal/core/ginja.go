package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/sealer"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Version names this middleware build; it surfaces in the
// ginja_build_info metric and /statusz. ObjectFormatVersion is the cloud
// object-format generation the build writes (3 = delta DB objects with
// `.b<ts>-<gen>` base linkage; 2, still readable, independently
// part-sealed DB objects; 1, still readable, sealed a DB object as one
// envelope).
const (
	Version             = "0.7.0"
	ObjectFormatVersion = 3
)

// ErrNoDump is returned by Recover when the cloud holds no dump to
// restore from.
var ErrNoDump = errors.New("core: no dump object in the cloud")

// ErrNotStarted is returned when Ginja is used before Boot/Reboot/Recover.
var ErrNotStarted = errors.New("core: ginja not started")

// Stats is a snapshot of Ginja's activity counters (the raw material of
// the paper's Table 3).
type Stats struct {
	// UpdatesObserved counts intercepted WAL writes (database updates in
	// the B/S sense).
	UpdatesObserved int64
	// Batches is the number of cloud synchronizations performed.
	Batches int64
	// WALObjectsUploaded / WALBytesUploaded cover the commit path
	// (bytes are sealed, i.e. post-compression sizes). The WAL segments
	// Boot uploads before the pipeline starts are not counted.
	WALObjectsUploaded int64
	WALBytesUploaded   int64
	// WALBytesRaw is the pre-seal payload volume (compression input).
	WALBytesRaw int64
	// UploadRetries counts transient cloud failures absorbed on commit-path
	// (Safety-class) uploads.
	UploadRetries int64
	// PackedWALObjects counts uploaded WAL objects carrying more than one
	// write (batch packing); WALObjectsUploaded − PackedWALObjects are
	// single-write objects.
	PackedWALObjects int64
	// SplitWALWrites counts writes larger than MaxObjectSize that had to
	// be split across objects.
	SplitWALWrites int64
	// Checkpoints / Dumps / Deltas are uploaded DB objects by type.
	Checkpoints int64
	Dumps       int64
	Deltas      int64
	// CheckpointsAbsorbed counts checkpoints that never shipped as their own
	// object: merged into the open checkpoint, or superseded by a dump/delta
	// while open or while uploading.
	CheckpointsAbsorbed int64
	// DeltaChainLen is the length of the landed delta chain (deltas since
	// the last full base dump; 0 while the process owns no chain, so the
	// next threshold crossing will emit a full dump).
	DeltaChainLen int
	// CheckpointBytesSaved is the cumulative payload NOT uploaded because
	// a delta shipped instead of the full re-dump the 150 % rule would
	// otherwise have triggered (local DB size at plan time minus delta
	// payload, summed over durable deltas).
	CheckpointBytesSaved int64
	// DumpGateBlockedTime is the cumulative time DBMS writes spent blocked
	// on the stop-writes dump gate (only writes to files an active dump or
	// delta plan was reading count).
	DumpGateBlockedTime time.Duration
	// DBObjectsUploaded / DBBytesUploaded cover the checkpoint path. The
	// Boot dump bypasses the checkpointer and is not counted.
	DBObjectsUploaded int64
	DBBytesUploaded   int64
	// WALObjectsDeleted / DBObjectsDeleted count garbage collection.
	WALObjectsDeleted int64
	DBObjectsDeleted  int64
	// BlockedTime is the cumulative time DBMS writes spent blocked on the
	// Safety contract.
	BlockedTime time.Duration
	// CheckpointBytesBuffered is the in-memory payload currently collected
	// or queued on the checkpoint path (the ginja_checkpoint_queue_bytes
	// gauge).
	CheckpointBytesBuffered int64
	// PeakStreamBytes is the high-water mark of the bytes the streaming DB
	// data path holds: file chunks read but not yet deflated, plus sealed
	// parts not yet PUT — bounded by 2 × CheckpointUploaders ×
	// MaxObjectSize regardless of database size.
	PeakStreamBytes int64
	// RPO is the live durability watermark: the age of the oldest update
	// not yet acknowledged by the cloud (0 when fully synchronized). Had a
	// disaster struck at snapshot time, this is how much committed work a
	// restore would lose.
	RPO time.Duration
	// SafetyLimit (S) and SafetyTimeout (TS) are the configured Safety
	// bounds, surfaced beside the realized RPO so /statusz shows the
	// contract next to the measurement.
	SafetyLimit   int
	SafetyTimeout time.Duration
	// EffectiveBatch and EffectiveBatchTimeout are the (B, TB) knobs the
	// commit path is actually running: the adaptive controller's current
	// choice under Params.AdaptiveBatching, the configured values
	// otherwise.
	EffectiveBatch        int
	EffectiveBatchTimeout time.Duration
	// FittedPutLatency is the controller's fitted cloud PUT latency at
	// the current effective batch size (0 until the fit has enough
	// samples, or when adaptive batching is off).
	FittedPutLatency time.Duration
	// LastRecovery is the phase-by-phase RTO budget of the most recent
	// Recover/RecoverAt on this instance, or of the Promote that created
	// it (nil if it never recovered).
	LastRecovery *RecoveryBreakdown
	// LastError is the first fatal replication error, rendered as a
	// string ("" while healthy), so health checks can consume a Stats
	// snapshot without reaching into internals.
	LastError string
}

// Ginja is the disaster-recovery middleware: it observes a database's
// file-system writes (through the vfs.FS returned by FS) and keeps a
// recoverable copy of the database in a cloud object store (§5).
//
// Lifecycle: New → exactly one of Boot / Reboot / Recover → (database
// runs) → Close. The paper's three initialization modes (Algorithm 1) map
// 1:1 onto those methods.
type Ginja struct {
	localFS vfs.FS
	io      *cloudIO
	proc    dbevent.Processor
	params  Params
	view    *CloudView

	pipe    *pipeline
	ckpt    *checkpointer
	started bool
	closed  bool

	// tracker accounts the bytes resident in the streaming DB data path
	// (Boot's dump and every checkpoint/dump upload share it).
	tracker *streamTracker

	// lastRecovery holds the RTO breakdown of the most recent
	// Recover/RecoverAt (atomic: Stats may race with RecoverAt on a
	// started instance).
	lastRecovery atomic.Pointer[RecoveryBreakdown]
}

var _ vfs.Observer = (*Ginja)(nil)

// New creates a Ginja instance protecting the database files in localFS,
// replicating to store, understanding the write pattern via proc.
// When params.Prefix is set, every object name is rooted under that
// prefix (many tenants can share one bucket); the rest of the stack —
// naming, LIST diffing, GC, recovery — operates on the prefix-stripped
// namespace and never observes foreign objects.
func New(localFS vfs.FS, store cloud.ObjectStore, proc dbevent.Processor, params Params) (*Ginja, error) {
	params, err := params.Validate()
	if err != nil {
		return nil, err
	}
	io, err := newCloudIO(store, params)
	if err != nil {
		return nil, err
	}
	return newGinja(localFS, io, proc, params), nil
}

// newGinja builds an instance over an existing cloud seam (New's, or the
// one a promoted Follower hands over). params must be validated.
func newGinja(localFS vfs.FS, io *cloudIO, proc dbevent.Processor, params Params) *Ginja {
	g := &Ginja{
		localFS: localFS,
		io:      io,
		proc:    proc,
		params:  params,
		view:    NewCloudView(),
		tracker: &streamTracker{},
	}
	if reg := params.Metrics; reg != nil {
		reg.GaugeFunc(metricStreamBytes,
			"File chunks not yet deflated plus sealed parts not yet PUT in the streaming DB data path.",
			nil, func() float64 { return float64(g.tracker.cur.Load()) })
		obs.RegisterBuildInfo(reg, Version, strconv.Itoa(ObjectFormatVersion))
	}
	return g
}

// FS returns the intercepted file system the DBMS must be opened on.
func (g *Ginja) FS() vfs.FS { return vfs.NewInterceptFS(g.localFS, g) }

// View exposes the cloud bookkeeping (read-mostly; used by tools/tests).
func (g *Ginja) View() *CloudView { return g.view }

// Params returns the validated configuration.
func (g *Ginja) Params() Params { return g.params }

// Boot uploads an initial copy of an existing database — every local WAL
// segment, cut into objects of at most MaxObjectSize, then a full dump —
// and starts the replication threads (Algorithm 1, Boot mode). The DBMS
// must only be started after Boot returns.
func (g *Ginja) Boot(ctx context.Context) error {
	if g.started {
		return errors.New("core: already started")
	}
	files, err := vfs.Walk(g.localFS, "")
	if err != nil {
		return fmt.Errorf("core: boot walk: %w", err)
	}
	sort.Strings(files)
	budget := partBudget(g.params.MaxObjectSize)
	var wal []bootWAL
	for _, p := range files {
		if g.proc.FileKind(p) != dbevent.KindWAL {
			continue
		}
		fi, err := g.localFS.Stat(p)
		if err != nil {
			return fmt.Errorf("core: boot stat %s: %w", p, err)
		}
		for _, part := range planParts([]planEntry{{path: p, length: fi.Size()}}, budget) {
			wal = append(wal, bootWAL{WALObjectInfo{Ts: g.view.NextWALTs(), Filename: p, Offset: part[0].offset}, part[0].length})
		}
	}
	// The boot dump takes the reserved timestamp 0, so that recovery's
	// "WAL newer than the newest DB object" rule keeps the boot segments.
	// The DBMS is not running yet, so the plan's lazy file ranges are
	// stable without the dump gate. The WAL objects and dump parts stream
	// through one bounded uploader pool (see upload).
	plan, err := planDump(g.localFS, g.proc, budget)
	if err != nil {
		return fmt.Errorf("core: boot dump: %w", err)
	}
	up := &partUploader{fs: g.localFS, io: g.io, tracker: g.tracker}
	info, _, err := up.upload(ctx, DBObjectInfo{Ts: 0, Gen: 0, Type: Dump}, plan, nil, wal)
	if err != nil {
		return fmt.Errorf("core: boot: %w", err)
	}
	for _, w := range wal {
		g.view.AddWAL(w.WALObjectInfo)
	}
	if err := g.view.AddDB(info); err != nil {
		return err
	}
	g.params.logger().Info("ginja boot complete",
		"wal_objects", len(g.view.WALObjects()), "dump_bytes", info.Size, "dump_parts", len(plan))
	g.start()
	// The boot dump can seed the delta chain: the DBMS has not run yet, so
	// the fresh dirty map has missed nothing. (Reboot/Recover must not seed
	// — their dirty map missed whatever the previous incarnation wrote
	// after the last chain element, so their first crossing folds.)
	g.ckpt.chainValid.Store(g.ckpt.dirty != nil)
	return nil
}

// Reboot resumes protection after a safe stop: the cloud is assumed to be
// synchronized with the local files, so only the cloudView needs to be
// rebuilt from a LIST (Algorithm 1, Reboot mode).
func (g *Ginja) Reboot(ctx context.Context) error {
	if g.started {
		return errors.New("core: already started")
	}
	infos, err := g.io.list(ctx, false)
	if err != nil {
		return fmt.Errorf("core: reboot list: %w", err)
	}
	if err := g.view.LoadFromList(infos); err != nil {
		return err
	}
	g.params.logger().Info("ginja reboot complete",
		"wal_objects", len(g.view.WALObjects()), "db_objects", len(g.view.DBObjects()))
	g.start()
	return nil
}

// Recover rebuilds the local database files from the cloud (Algorithm 1,
// Recovery mode): newest dump, then its delta chain and the incremental
// checkpoints after it, then the WAL objects with consecutive timestamps
// (see live). After Recover returns, the DBMS can be started on
// FS() and will complete its own crash recovery from the rebuilt files.
func (g *Ginja) Recover(ctx context.Context) error {
	if g.started {
		return errors.New("core: already started")
	}
	bd := &RecoveryBreakdown{Mode: "recover"}
	if err := g.recoverInto(ctx, g.view, g.localFS, bd, func([]cloud.ObjectInfo) error {
		return g.restoreTo(ctx, g.view, g.localFS, -1, bd)
	}); err != nil {
		return err
	}
	g.params.logger().Info("ginja recovery complete",
		"wal_objects", len(g.view.WALObjects()), "db_objects", len(g.view.DBObjects()),
		"rto_ms", bd.Total.Milliseconds(), "fetched_bytes", bd.Bytes)
	g.start()
	return nil
}

// RecoverAt rebuilds the local files to the exact consistent prefix of
// the commit history up to and including WAL timestamp ts: the newest
// retained dump at or before ts, its delta chain and the incremental
// checkpoints after it up to ts, then the consecutive WAL run ending at ts
// (see live). Any ts whose objects are still retained (Params.RetainFor) is a
// valid recovery point; a ts older than the retention window fails with
// ErrNoDump. ts = -1 recovers the newest state (like Recover, but onto
// target). RecoverAt does NOT start replication — point-in-time restores
// are for inspection or fork-off, not for resuming the production
// timeline — and plans from a view of its own listing, so the instance's
// view, live or not, is left alone.
func (g *Ginja) RecoverAt(ctx context.Context, target vfs.FS, ts int64) error {
	if ts < -1 {
		return fmt.Errorf("core: RecoverAt target ts must be ≥ 0 (or -1 for newest), got %d", ts)
	}
	bd := &RecoveryBreakdown{Mode: "recover_at"}
	view := NewCloudView()
	return g.recoverInto(ctx, view, target, bd, func([]cloud.ObjectInfo) error {
		return g.restoreTo(ctx, view, target, ts, bd)
	})
}

// recoverInto runs the full recovery sequence onto target — LIST, view
// build, restore (which fills target: from a plan for Recover and
// RecoverAt, by a Follower's final catch-up for Promote), verify — with
// every phase timed into bd, then publishes bd (Stats.LastRecovery, the
// ginja_recovery_phase_seconds histogram and "recovery:*" spans).
func (g *Ginja) recoverInto(ctx context.Context, view *CloudView, target vfs.FS, bd *RecoveryBreakdown, restore func([]cloud.ObjectInfo) error) error {
	clk := g.params.clock()
	started := clk.Now()
	infos, err := g.io.list(ctx, false)
	if err != nil {
		return fmt.Errorf("core: %s list: %w", bd.Mode, err)
	}
	bd.List = clk.Since(started)

	t := clk.Now()
	if err := view.LoadFromList(infos); err != nil {
		return err
	}
	bd.ViewBuild = clk.Since(t)

	if err := restore(infos); err != nil {
		return err
	}

	t = clk.Now()
	files, bytes, err := verifyRestore(target)
	if err != nil {
		return fmt.Errorf("core: %s verify: %w", bd.Mode, err)
	}
	bd.Verify = clk.Since(t)
	bd.VerifiedFiles, bd.VerifiedBytes = files, bytes

	bd.Total = clk.Since(started)
	g.lastRecovery.Store(bd)
	observeRecovery(g.params.Metrics, bd, started)
	return nil
}

// restoreTo rebuilds target as live orders it from view (upTo = -1: the
// newest state), accumulating the fetch/decode/apply phase timings into
// bd. Only the downloads overlap (RecoveryFetchers parallel GETs); every
// object is applied strictly in plan order.
func (g *Ginja) restoreTo(ctx context.Context, view *CloudView, target vfs.FS, upTo int64, bd *RecoveryBreakdown) error {
	db, run, err := live(view.DBObjects(), view.WALObjects(), upTo)
	if err != nil {
		return err
	}
	bd.DumpTs, bd.WALObjects = db[0].Ts, len(run)
	_, err = g.io.restore(ctx, target, planNames(db, run), bd)
	return err
}

// openAndApply is the read side of every cloud object — DB part, unsplit
// DB object and WAL object alike: open the envelope, decode its write
// list, replay it onto target. Decode and apply time accumulate into bd
// when it is non-nil.
func openAndApply(seal *sealer.Sealer, clk simclock.Clock, target vfs.FS, name string, env []byte, bd *RecoveryBreakdown) error {
	decStart := clk.Now()
	payload, err := seal.Open(env)
	if err != nil {
		return fmt.Errorf("core: open %s: %w", name, err)
	}
	writes, err := DecodeWrites(payload)
	if err != nil {
		return fmt.Errorf("core: decode %s: %w", name, err)
	}
	applyStart := clk.Now()
	err = applyWrites(target, writes)
	if bd != nil {
		bd.Decode += applyStart.Sub(decStart)
		bd.Apply += clk.Since(applyStart)
	}
	return err
}

// applyWrites replays file writes locally (Algorithm 1's writeLocally).
func applyWrites(target vfs.FS, writes []FileWrite) error {
	for _, w := range writes {
		if w.Whole {
			if err := vfs.WriteFile(target, w.Path, w.Data); err != nil {
				return err
			}
			continue
		}
		if err := vfs.WriteAt(target, w.Path, w.Offset, w.Data); err != nil {
			return err
		}
	}
	return nil
}

// start launches the replication threads (Algorithm 1 lines 2-6). First
// the view stamps what its start-up listing holds that the GC rule
// supersedes — history a previous instance retained or never got to
// delete — so the trim treats it like this instance's own: its retention
// window starts now.
func (g *Ginja) start() {
	g.view.supersede(g.params.clock().Now())
	g.pipe = newPipeline(g.view, g.io, g.params)
	g.pipe.start(g.view.LastWALTs())
	g.ckpt = newCheckpointer(g.localFS, g.proc, g.view, g.io, g.params, g.tracker)
	g.ckpt.start()
	g.started = true
	if reg := g.params.Metrics; reg != nil {
		// "pipeline" answers /healthz: alive until a fatal replication
		// error rejects commits (re-registering rebinds it to this
		// instance when a registry outlives a Ginja).
		reg.RegisterHealth("pipeline", func() error {
			if g.closed {
				return errors.New("core: ginja closed")
			}
			return g.Err()
		})
	}
}

// SyncCheckpoints blocks until every checkpoint that ended before the call
// is durable (in its own object, merged into a later one, or superseded by
// a dump or delta), recorded and swept, or until the timeout (false). Wait
// on it, not on Stats object counts: those move mid-sweep and, once
// checkpoints merge, no longer match. True at once before replication starts.
func (g *Ginja) SyncCheckpoints(timeout time.Duration) bool {
	if g.ckpt == nil {
		return true
	}
	return g.ckpt.sync(timeout)
}

// OnBeforeWrite implements vfs.Observer: data-class writes and truncates
// block here while a streaming dump's or delta's local reads are in flight
// (§5.3: Ginja stops local DB writes during dump creation) — but only
// those to files the active plans actually read lazily; everything else
// sails through. The hook fires before the change lands, so no page can
// change, and no file shrink, under a plan's file ranges.
func (g *Ginja) OnBeforeWrite(path string, off int64, data []byte) {
	if !g.started || g.closed || g.ckpt == nil {
		return
	}
	if g.proc.FileKind(path) != dbevent.KindData {
		return
	}
	g.ckpt.waitGate(path)
}

// OnWrite implements vfs.Observer: classify the write and route it to the
// commit pipeline or the checkpointer. WAL writes block here until the
// Safety contract is satisfied.
func (g *Ginja) OnWrite(path string, off int64, data []byte) {
	if !g.started || g.closed {
		return
	}
	ev := g.proc.Classify(path, off, data)
	switch ev.Type {
	case dbevent.UpdateCommit:
		// Errors surface via Err(); the write itself already succeeded
		// locally, and blocking semantics are handled inside submit.
		g.pipe.submit(path, off, data) //nolint:errcheck
	case dbevent.CheckpointBegin, dbevent.CheckpointData, dbevent.CheckpointEnd:
		g.ckpt.handle(ev)
	}
}

// OnSync implements vfs.Observer (no action needed: classification happens
// on writes).
func (g *Ginja) OnSync(string) {}

// OnTruncate implements vfs.Observer: a truncated data file can no longer
// be described by dirty ranges, so the next delta must recapture it whole
// (applyWrites replays whole-file entries with a truncating WriteFile, so
// the shrink replicates correctly).
func (g *Ginja) OnTruncate(path string, size int64) {
	if !g.started || g.closed || g.ckpt == nil {
		return
	}
	if g.proc.FileKind(path) != dbevent.KindData {
		return
	}
	g.ckpt.handleTruncate(path)
}

// OnRemove implements vfs.Observer. Removes and renames are not
// replicated, and WAL trim shadows stay valid only because of that: once
// they are, each must drop the shadow of the path it affects.
func (g *Ginja) OnRemove(string) {}

// Err returns the first fatal replication error, if any.
func (g *Ginja) Err() error {
	if g.pipe == nil {
		return nil
	}
	if err := g.pipe.lastErr(); err != nil {
		return err
	}
	if g.ckpt != nil {
		return g.ckpt.lastErr()
	}
	return nil
}

// PendingUpdates returns the number of updates not yet acknowledged by
// the cloud (the quantity bounded by S).
func (g *Ginja) PendingUpdates() int {
	if g.pipe == nil {
		return 0
	}
	return g.pipe.q.size()
}

// RPO returns the live durability watermark: the age of the oldest update
// not yet acknowledged by the cloud, i.e. how much committed work would be
// lost if the disaster struck now. Zero when the cloud holds everything
// (or replication has not started). The watermark advances exactly when
// the Unlocker releases updates on cloud acknowledgement — never on
// enqueue — so it is the paper's `e_dl` measured rather than bounded.
func (g *Ginja) RPO() time.Duration {
	if g.pipe == nil {
		return 0
	}
	at, ok := g.pipe.q.oldestPendingAt()
	if !ok {
		return 0
	}
	return g.pipe.clk.Since(at)
}

// Flush waits until every pending commit has been uploaded (bounded by
// timeout) and reports whether the queue drained.
func (g *Ginja) Flush(timeout time.Duration) bool {
	if g.pipe == nil {
		return true
	}
	// A fatally-failed pipeline can never drain; report failure at once
	// instead of sleeping out the caller's timeout.
	if g.pipe.lastErr() != nil {
		return false
	}
	return g.pipe.q.drain(timeout)
}

// Stats returns a snapshot of activity counters.
func (g *Ginja) Stats() Stats {
	var s Stats
	if g.pipe != nil {
		s.UpdatesObserved = g.pipe.stats.updates.Load()
		s.Batches = g.pipe.stats.batches.Load()
		s.WALObjectsUploaded = g.pipe.stats.walObjects.Load()
		s.WALBytesUploaded = g.pipe.stats.walBytes.Load()
		s.WALBytesRaw = g.pipe.stats.rawBytes.Load()
		s.UploadRetries = g.io.retries.Load()
		s.PackedWALObjects = g.pipe.stats.packedObjects.Load()
		s.SplitWALWrites = g.pipe.stats.splitWrites.Load()
		s.BlockedTime = g.pipe.q.blockedDuration()
	}
	if g.ckpt != nil {
		s.Checkpoints = g.ckpt.stats.checkpoints.Load()
		s.Dumps = g.ckpt.stats.dumps.Load()
		s.Deltas = g.ckpt.stats.deltas.Load()
		s.CheckpointsAbsorbed = g.ckpt.stats.absorbed.Load()
		s.DeltaChainLen = g.ckpt.deltaChainLen()
		s.CheckpointBytesSaved = g.ckpt.stats.bytesSaved.Load()
		s.DumpGateBlockedTime = time.Duration(g.ckpt.stats.gateBlockedNanos.Load())
		s.DBObjectsUploaded = g.ckpt.stats.dbObjects.Load()
		s.DBBytesUploaded = g.ckpt.stats.dbBytes.Load()
		s.WALObjectsDeleted = g.ckpt.stats.walDeleted.Load()
		s.DBObjectsDeleted = g.ckpt.stats.dbDeleted.Load()
		s.CheckpointBytesBuffered = g.ckpt.bufBytes.Load()
	}
	if g.tracker != nil {
		s.PeakStreamBytes = g.tracker.peak.Load()
	}
	s.RPO = g.RPO()
	s.SafetyLimit = g.params.Safety
	s.SafetyTimeout = g.params.SafetyTimeout
	s.EffectiveBatch = g.params.Batch
	s.EffectiveBatchTimeout = g.params.BatchTimeout
	if g.pipe != nil {
		if t := g.pipe.tuner; t != nil {
			k := t.snapshot()
			s.EffectiveBatch = k.batch
			s.EffectiveBatchTimeout = k.timeout
			s.FittedPutLatency = k.putLatency
		}
	}
	s.LastRecovery = g.lastRecovery.Load()
	if err := g.Err(); err != nil {
		s.LastError = err.Error()
	}
	return s
}

// Close drains pending work (bounded) and stops the replication threads.
// The DBMS must be stopped before calling Close for a "safe stop" in the
// Reboot sense.
func (g *Ginja) Close() error {
	if !g.started || g.closed {
		return nil
	}
	g.closed = true
	var firstErr error
	if err := g.pipe.drainAndStop(30 * time.Second); err != nil && !errors.Is(err, ErrQueueClosed) {
		firstErr = err
	}
	if err := g.ckpt.stop(30 * time.Second); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
