package core

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// walUpload is one WAL object headed for the cloud. batch identifies the
// Aggregator batch that produced it, so a trace can follow a commit from
// FS interception to cloud ack. writes is the packed write list forming
// the object body, leased from walWritesPool; the uploader returns it to
// the pool once the body is encoded.
type walUpload struct {
	ts     int64
	batch  int64
	writes *[]FileWrite
}

// walWritesPool recycles the per-object write lists the Aggregator hands
// to the Uploader pool, so planning a batch into packed objects allocates
// nothing in steady state.
var walWritesPool = sync.Pool{New: func() any { return new([]FileWrite) }}

// sealedUpload is one encoded+sealed WAL object crossing from the seal
// stage to the PUT stage of the pipelined uploader. The sealed buffer is
// freshly produced by Seal (never pooled, never aliased by the encode
// scratch), so handing it between goroutines is safe; by the time it is
// minted the leased write list is already back in walWritesPool.
type sealedUpload struct {
	ts      int64
	batch   int64
	file    string
	off     int64
	name    string
	sealed  []byte
	rawLen  int
	nWrites int
	t0      time.Time // seal-stage start; zero when nothing is timing
}

// batchRec tracks one Aggregator batch so the Unlocker can release its
// updates from the CommitQueue once all its objects are durable, and so
// the batch's trace span can be closed with end-to-end timings.
type batchRec struct {
	id           int64
	count        int   // updates in the batch
	objects      int   // WAL objects produced
	maxTs        int64 // highest WAL timestamp the batch produced
	enqueuedAt   time.Time
	aggregatedAt time.Time
}

// unlockEv is one Unlocker input: a batch the Aggregator finished
// planning (isBatch), or a WAL timestamp the cloud acknowledged (carried
// in rec.maxTs alone). Acks and batches share one channel so the Unlocker
// has a single place to park.
type unlockEv struct {
	rec     batchRec
	isBatch bool
}

// pipelineStats are the commit-path counters behind Table 3.
type pipelineStats struct {
	walObjects    atomic.Int64
	walBytes      atomic.Int64 // sealed (uploaded) bytes
	rawBytes      atomic.Int64 // pre-seal payload bytes
	batches       atomic.Int64
	updates       atomic.Int64
	packedObjects atomic.Int64 // WAL objects carrying more than one write
	splitWrites   atomic.Int64 // writes split across objects (> MaxObjectSize)
}

// pipeline wires the CommitQueue to the cloud: Aggregator → Uploader pool
// → Unlocker (paper Figure 3, implementing Algorithm 2).
type pipeline struct {
	q      *commitQueue
	clk    simclock.Clock
	view   *CloudView
	io     *cloudIO
	params Params

	uploadCh chan walUpload
	// sealedCh feeds sealed objects from the seal stage to the PUT stage.
	sealedCh chan sealedUpload
	// unlockCh has room for 64 batch records ahead of the Unlocker plus
	// one ack per uploader, so neither feeder waits on a busy Unlocker.
	unlockCh chan unlockEv

	// tuner is the adaptive (B, TB) controller; nil unless
	// Params.AdaptiveBatching.
	tuner *tuner

	ctx    context.Context
	cancel context.CancelFunc
	wg     *simclock.Group

	stats    pipelineStats
	metrics  *pipelineMetrics
	batchSeq atomic.Int64
	trace    bool // emit per-batch/per-object spans via params.Logger
	// spans is the obs span ring: per-batch/per-object spans are recorded
	// here whenever a metrics registry is attached, independent of the
	// logger's level (slog emission stays Debug-gated via trace). Recording
	// is a mutex + struct copy — nothing the allocator sees — so the packed
	// commit hot path stays at 0 allocs/op with spans flowing.
	spans *obs.SpanRing

	// Aggregator scratch, reused across batches (the Aggregator is a
	// single goroutine). Together with the pooled submit copies and
	// per-object write lists this keeps the steady-state commit hot path
	// allocation-free.
	batchBuf  []update
	writesBuf []FileWrite
	merge     mergeScratch
	plan      [][]FileWrite
	shadows   walShadows

	errMu sync.Mutex
	err   error
}

func newPipeline(view *CloudView, io *cloudIO, params Params) *pipeline {
	// Every PUT this pipeline issues is a commit-path WAL object: the
	// context is tagged once, so the per-object put wraps nothing.
	ctx, cancel := context.WithCancel(withClass(context.Background(), classSafety))
	clk := params.clock()
	p := &pipeline{
		q:        newCommitQueue(params),
		clk:      clk,
		view:     view,
		io:       io,
		params:   params,
		metrics:  newPipelineMetrics(params.Metrics),
		trace:    params.Logger != nil && params.Logger.Enabled(context.Background(), slog.LevelDebug),
		uploadCh: make(chan walUpload, params.Uploaders),
		sealedCh: make(chan sealedUpload, params.Uploaders),
		unlockCh: make(chan unlockEv, 64+params.Uploaders),
		ctx:      ctx,
		cancel:   cancel,
		wg:       simclock.NewGroup(clk),
		shadows:  walShadows{files: make(map[string]FileWrite)},
	}
	if params.Metrics != nil {
		p.spans = params.Metrics.Spans()
		p.q.lossHist = p.metrics.lossWindow
	}
	if params.AdaptiveBatching {
		p.tuner = newTuner(p.q, params, p.stats.updates.Load)
	}
	return p
}

// start launches the Aggregator, the Uploader pool and the Unlocker.
// initialFrontier is the highest WAL timestamp already known durable
// (everything the view held at start).
func (p *pipeline) start(initialFrontier int64) {
	if reg := p.params.Metrics; reg != nil {
		// Re-registering rebinds the sampling closures to this pipeline,
		// so a registry outliving a Ginja instance keeps reading live
		// state instead of a stopped pipeline's.
		reg.GaugeFunc(metricQueueDepth,
			"Unacknowledged updates in the CommitQueue (bounded by Safety).",
			nil, func() float64 { return float64(p.q.size()) })
		reg.GaugeFunc(metricUploadChDepth,
			"WAL objects buffered between the Aggregator and the Uploader pool.",
			nil, func() float64 { return float64(len(p.uploadCh)) })
		// The live RPO watermark: how stale a restore would be if the
		// disaster struck at scrape time. Zero whenever the cloud holds
		// everything committed.
		reg.GaugeFunc(metricRPOSeconds,
			"Age in seconds of the oldest update not yet acknowledged by the cloud (live RPO; 0 when fully synchronized).",
			nil, func() float64 {
				at, ok := p.q.oldestPendingAt()
				if !ok {
					return 0
				}
				return p.clk.Since(at).Seconds()
			})
		// The configured Safety bounds, exported beside the watermark so a
		// dashboard (or /statusz reader) sees the contract next to the
		// realized value.
		reg.Gauge(metricSafetyLimit,
			"Configured Safety limit S: maximum updates allowed pending cloud acknowledgement.",
			nil).Set(float64(p.params.Safety))
		reg.Gauge(metricSafetyTimeout,
			"Configured Safety timeout TS in seconds: maximum age of a pending update before commits block.",
			nil).Set(p.params.SafetyTimeout.Seconds())
		// The effective knobs: what the commit path is actually running —
		// the controller's live choice under AdaptiveBatching, the
		// configured statics otherwise — plus the fitted latency curve so
		// a dashboard can see what the controller sees.
		reg.GaugeFunc(metricEffectiveBatch,
			"Effective Batch size B the Aggregator is cutting (adaptive controller's choice, or the configured Batch).",
			nil, func() float64 {
				if t := p.tuner; t != nil {
					return float64(t.snapshot().batch)
				}
				return float64(p.params.Batch)
			})
		reg.GaugeFunc(metricEffectiveBatchTimeout,
			"Effective Batch timeout TB in seconds (adaptive controller's choice, or the configured BatchTimeout).",
			nil, func() float64 {
				if t := p.tuner; t != nil {
					return t.snapshot().timeout.Seconds()
				}
				return p.params.BatchTimeout.Seconds()
			})
		reg.GaugeFunc(metricFitBase,
			"Fixed-latency intercept of the controller's fitted PUT latency-vs-size curve, in seconds (0 until fitted).",
			nil, func() float64 {
				if t := p.tuner; t != nil {
					return t.snapshot().fitBase
				}
				return 0
			})
		reg.GaugeFunc(metricFitPerByte,
			"Per-byte slope of the controller's fitted PUT latency-vs-size curve, in seconds per sealed byte (0 until fitted).",
			nil, func() float64 {
				if t := p.tuner; t != nil {
					return t.snapshot().fitPerByte
				}
				return 0
			})
	}
	// The last worker leaving a stage closes the downstream channel
	// (atomic countdown) — no WaitGroup-then-close watcher goroutines.
	// At one instance the two watchers were noise; across a fleet of
	// thousands of tenants they were two goroutines per database. The
	// Unlocker's channel is fed by the Aggregator and every PUT worker,
	// so the last of those closes it.
	//
	// Two-stage uploader: seal workers encode+seal batch N+1 while the
	// PUT workers hold batch N's upload in flight. Acks flow through the
	// ackRing/unlocker, so release order (and the Safety bound) does not
	// depend on which worker finishes first.
	var sealersLeft, feedersLeft atomic.Int32
	sealersLeft.Store(int32(p.params.Uploaders))
	feedersLeft.Store(int32(p.params.Uploaders) + 1)
	feederDone := func() {
		if feedersLeft.Add(-1) == 0 {
			simclock.Close(p.clk, p.unlockCh)
		}
	}
	for i := 0; i < p.params.Uploaders; i++ {
		p.wg.Go(func() {
			defer func() {
				if sealersLeft.Add(-1) == 0 {
					simclock.Close(p.clk, p.sealedCh)
				}
			}()
			p.sealStage()
		})
		p.wg.Go(func() {
			defer feederDone()
			p.putStage()
		})
	}
	if p.tuner != nil {
		p.tuner.start()
	}
	p.wg.Go(func() {
		defer feederDone()
		p.aggregator()
	})
	p.wg.Go(func() { p.unlocker(initialFrontier) })
}

// submit is called from the intercepted WAL write; it blocks per the
// Safety contract and returns the time spent blocked. The payload is
// copied into a pooled buffer that the CommitQueue recycles once the
// update's object is durable, so steady-state submission allocates
// nothing.
func (p *pipeline) submit(path string, off int64, data []byte) (time.Duration, error) {
	if err := p.lastErr(); err != nil {
		return 0, err
	}
	p.stats.updates.Add(1)
	bp := walBufPool.Get().(*[]byte)
	*bp = append((*bp)[:0], data...)
	blocked, err := p.q.put(update{path: path, off: off, data: *bp, pooled: bp})
	if m := p.metrics; m != nil {
		m.updates.Inc()
		if blocked > 0 {
			m.blockedSeconds.AddDuration(blocked)
			m.blocks.Inc()
		}
	}
	return blocked, err
}

// aggregator implements the Aggregator thread: read batches of up to B
// updates, coalesce page rewrites, pack the batch into the minimum number
// of WAL objects (up to MaxObjectSize each), stamp timestamps and hand
// the objects to the uploaders (Algorithm 2 lines 9-16). A full batch of
// B scattered small commits becomes ceil(batch bytes / MaxObjectSize)
// objects — usually one — instead of one per write-run.
func (p *pipeline) aggregator() {
	defer simclock.Close(p.clk, p.uploadCh)
	for {
		updates, ok := p.q.nextBatch(p.batchBuf)
		if !ok {
			return
		}
		p.batchBuf = updates // keep the grown capacity for the next batch
		m := p.metrics
		var aggStart time.Time
		if m != nil || p.trace {
			aggStart = p.clk.Now()
		}
		if m != nil {
			for _, u := range updates {
				m.queueWait.ObserveDuration(aggStart.Sub(u.at))
			}
		}
		batchID := p.batchSeq.Add(1)
		first := p.planBatch(updates)
		maxTs := first + int64(len(p.plan)) - 1
		for i, group := range p.plan {
			ws := walWritesPool.Get().(*[]FileWrite)
			*ws = append((*ws)[:0], group...)
			if simclock.Send(p.ctx, p.clk, p.uploadCh, walUpload{ts: first + int64(i), batch: batchID, writes: ws}) != nil {
				*ws = (*ws)[:0]
				walWritesPool.Put(ws)
				return
			}
		}
		p.stats.batches.Add(1)
		if m != nil {
			m.batches.Inc()
			m.putsPerBatch.Observe(float64(len(p.plan)))
			m.aggregate.ObserveDuration(p.clk.Since(aggStart))
		}
		if p.spans != nil {
			// spans != nil implies metrics != nil, so aggStart is set.
			p.spans.Record(obs.Span{
				Name: "aggregate", ID: batchID, Extra: int64(len(updates)),
				Start: aggStart, Duration: p.clk.Since(aggStart),
			})
		}
		rec := batchRec{
			id:           batchID,
			count:        len(updates),
			objects:      len(p.plan),
			maxTs:        maxTs,
			enqueuedAt:   updates[0].at,
			aggregatedAt: p.clk.Now(),
		}
		if p.trace {
			p.params.logger().Debug("batch aggregated",
				"batch", batchID, "updates", rec.count, "objects", rec.objects,
				"max_ts", maxTs, "queue_wait_ms", aggStart.Sub(rec.enqueuedAt).Milliseconds())
		}
		if simclock.Send(p.ctx, p.clk, p.unlockCh, unlockEv{isBatch: true, rec: rec}) != nil {
			return
		}
	}
}

// planBatch coalesces, packs, stamps and then trims a batch into p.plan
// and returns its first timestamp. Unless the sealer compresses, each
// write's trailing zero run then ships as a zero fill (cutZeroTails).
func (p *pipeline) planBatch(updates []update) int64 {
	writes := p.writesBuf[:0]
	for _, u := range updates {
		writes = append(writes, FileWrite{Path: u.path, Offset: u.off, Data: u.data})
	}
	p.writesBuf = writes
	// Contiguous runs stay separate writes: joining them would copy
	// payload, and the packed object carries a write list anyway.
	merged := p.merge.merge(writes, false)
	maxSize := p.params.MaxObjectSize
	if maxSize > 0 {
		for _, w := range merged {
			if !w.Whole && int64(len(w.Data)) > maxSize {
				p.stats.splitWrites.Add(1)
			}
		}
	}
	p.plan = AppendPackWrites(p.plan, merged, maxSize)
	// Packing counts the writes it packed, not the zero fills cut below.
	for _, group := range p.plan {
		if len(group) > 1 {
			p.stats.packedObjects.Add(1)
		}
		if m := p.metrics; m != nil {
			m.writesPerObject.Observe(float64(len(group)))
		}
	}
	first, epoch := p.view.allocWALTs(len(p.plan))
	p.shadows.trim(epoch, p.plan, merged)
	if !p.params.Compress { // the sealer compresses iff Params.Compress
		for i := range p.plan {
			p.plan[i] = cutZeroTails(p.plan[i])
		}
	}
	return first
}

// cutZeroTails cuts each positional write's trailing zero run, where it
// is longer than the entry header a zero fill costs, off into a zero fill
// right after the write; an all-zero write becomes one. The fills stay in
// the write's object, and a group the cuts grow keeps its capacity for
// later batches.
func cutZeroTails(group []FileWrite) []FileWrite {
	for i := 0; i < len(group); i++ {
		w := &group[i]
		if w.Whole || w.Zero {
			continue
		}
		z := zeroTail(w.Data)
		if z <= entryHeader(w.Path) {
			continue
		}
		keep := len(w.Data) - z
		fill := FileWrite{Path: w.Path, Offset: w.Offset + int64(keep), Data: w.Data[keep:], Zero: true}
		if keep == 0 {
			*w = fill
			continue
		}
		w.Data = w.Data[:keep]
		group = slices.Insert(group, i+1, fill)
		i++
	}
	return group
}

// sealOne encodes and seals one WAL object. Each worker passes its
// private encode buffer through enc: at high update rates the per-object
// encode+seal would otherwise be allocation-bound (Seal never retains its
// input, so reuse across iterations is safe). The leased write list goes
// back to walWritesPool as soon as the body is encoded — before any PUT
// starts — and the sealed buffer Seal returns is fresh, so the result can
// safely outlive this call in another goroutine.
func (p *pipeline) sealOne(u walUpload, enc *[]byte) (sealedUpload, bool) {
	m := p.metrics
	var t0 time.Time
	if m != nil || p.trace {
		t0 = p.clk.Now()
	}
	ws := *u.writes
	first := ws[0]
	nWrites := len(ws)
	*enc = EncodeWritesInto((*enc)[:0], ws)
	*u.writes = ws[:0]
	walWritesPool.Put(u.writes)
	sealed, err := p.io.seal.Seal(*enc)
	if err != nil {
		p.fail(fmt.Errorf("core: seal WAL object ts=%d: %w", u.ts, err))
		return sealedUpload{}, false
	}
	if m != nil {
		m.seal.ObserveDuration(p.clk.Since(t0))
	}
	return sealedUpload{
		ts:      u.ts,
		batch:   u.batch,
		file:    first.Path,
		off:     first.Offset,
		name:    WALObjectName(u.ts, first.Path, first.Offset),
		sealed:  sealed,
		rawLen:  len(*enc),
		nWrites: nWrites,
		t0:      t0,
	}, true
}

// putSealed uploads one sealed object, records telemetry, feeds the
// adaptive controller's latency fit and acknowledges the timestamp.
// Returns false when the pipeline is shutting down or has failed.
func (p *pipeline) putSealed(su sealedUpload) bool {
	m := p.metrics
	var upStart time.Time
	if m != nil || p.trace || p.tuner != nil {
		upStart = p.clk.Now()
	}
	if err := p.io.put(p.ctx, classSafety, su.name, su.sealed); err != nil {
		p.fail(fmt.Errorf("core: upload %s: %w", su.name, err))
		return false
	}
	var putDur time.Duration
	if !upStart.IsZero() {
		putDur = p.clk.Since(upStart)
	}
	if t := p.tuner; t != nil {
		t.observePut(len(su.sealed), putDur)
	}
	p.view.AddWAL(WALObjectInfo{
		Ts: su.ts, Filename: su.file, Offset: su.off, Size: int64(len(su.sealed)),
	})
	p.stats.walObjects.Add(1)
	p.stats.walBytes.Add(int64(len(su.sealed)))
	p.stats.rawBytes.Add(int64(su.rawLen))
	if m != nil {
		m.upload.ObserveDuration(putDur)
		m.observeWALPut(len(su.sealed), putDur)
		m.walObjects.Inc()
		m.walBytes.Add(float64(len(su.sealed)))
		m.rawBytes.Add(float64(su.rawLen))
		m.objectBytes.Observe(float64(len(su.sealed)))
	}
	if p.spans != nil {
		// Seal + PUT (retries included) of one WAL object; ID is the
		// object timestamp, Extra the sealed bytes shipped. The span
		// covers the wait in sealedCh too — time the object genuinely
		// spent between intercept and durability.
		p.spans.Record(obs.Span{
			Name: "wal_put", ID: su.ts, Extra: int64(len(su.sealed)),
			Start: su.t0, Duration: p.clk.Since(su.t0),
		})
	}
	if p.trace {
		p.params.logger().Debug("wal object uploaded",
			"batch", su.batch, "ts", su.ts, "writes", su.nWrites, "bytes", len(su.sealed),
			"upload_ms", putDur.Milliseconds())
	}
	return simclock.Send(p.ctx, p.clk, p.unlockCh, unlockEv{rec: batchRec{maxTs: su.ts}}) == nil
}

// sealStage is the first half of the pipelined uploader: it seals the
// next object while the PUT stage holds the previous one in flight, so
// encode+seal CPU time hides under cloud RTT.
func (p *pipeline) sealStage() {
	var enc []byte
	for {
		u, ok, _ := simclock.Recv(context.Background(), p.clk, p.uploadCh)
		if !ok {
			return
		}
		su, ok := p.sealOne(u, &enc)
		if !ok || simclock.Send(p.ctx, p.clk, p.sealedCh, su) != nil {
			return
		}
	}
}

// putStage is the second half of the pipelined uploader. A sealed object
// that never reaches the ack (crash, outage-failure) is simply absent
// from the cloud: the unlocker's consecutive-frontier rule already
// refuses to release anything at or beyond the gap, so a
// sealed-but-unPUT object can never be acknowledged to the DBMS.
func (p *pipeline) putStage() {
	for {
		su, ok, _ := simclock.Recv(context.Background(), p.clk, p.sealedCh)
		if !ok || !p.putSealed(su) {
			return
		}
	}
}

// ackRing tracks acknowledged WAL timestamps beyond the consecutive
// frontier in a ring bitmap. The window it needs is bounded by the
// objects simultaneously in flight (uploadCh buffer plus one per
// uploader): the Aggregator blocks minting further timestamps once the
// channel is full, so an unbounded acked-timestamp map — which under a
// long outage with parallel uploaders grows without limit — is never
// necessary. The ring still grows (doubling) if an ack lands beyond the
// window, so sizing is a fast path, not a correctness assumption.
type ackRing struct {
	bits  []uint64
	start int   // ring bit index of base
	base  int64 // first timestamp the window covers (frontier+1)
}

func newAckRing(base int64, minBits int) *ackRing {
	words := 1
	for words*64 < minBits {
		words *= 2
	}
	return &ackRing{bits: make([]uint64, words), base: base}
}

func (r *ackRing) capBits() int { return len(r.bits) * 64 }

// set marks ts acknowledged. Timestamps below the window base (duplicate
// acks of released objects) are ignored.
func (r *ackRing) set(ts int64) {
	if ts < r.base {
		return
	}
	for int(ts-r.base) >= r.capBits() {
		r.grow()
	}
	pos := (r.start + int(ts-r.base)) % r.capBits()
	r.bits[pos/64] |= 1 << (pos % 64)
}

func (r *ackRing) grow() {
	nb := make([]uint64, len(r.bits)*2)
	for i := 0; i < r.capBits(); i++ {
		pos := (r.start + i) % r.capBits()
		if r.bits[pos/64]&(1<<(pos%64)) != 0 {
			nb[i/64] |= 1 << (i % 64)
		}
	}
	r.bits = nb
	r.start = 0
}

// advance consumes the contiguous acknowledged run at the window base and
// returns the new frontier (the last consecutive acknowledged timestamp).
func (r *ackRing) advance() int64 {
	for {
		pos := r.start
		if r.bits[pos/64]&(1<<(pos%64)) == 0 {
			return r.base - 1
		}
		r.bits[pos/64] &^= 1 << (pos % 64)
		r.start = (r.start + 1) % r.capBits()
		r.base++
	}
}

// unlocker implements the Unlocker thread: advance the contiguous-
// timestamp frontier as acknowledgements arrive and release batches from
// the CommitQueue in FIFO order. Releasing only up to the *consecutive*
// frontier is what bounds data loss to S even with parallel, out-of-order
// uploads (§5.3: "Ginja blocks the DBMS until all WAL objects with
// consecutive ts values are uploaded").
func (p *pipeline) unlocker(frontier int64) {
	acked := newAckRing(frontier+1, 4*p.params.Uploaders+64)
	var pending []batchRec
	for {
		ev, ok, _ := simclock.Recv(context.Background(), p.clk, p.unlockCh)
		if !ok {
			return
		}
		if ev.isBatch {
			pending = append(pending, ev.rec)
		} else {
			acked.set(ev.rec.maxTs)
			frontier = acked.advance()
		}
		for len(pending) > 0 && pending[0].maxTs <= frontier {
			rec := pending[0]
			p.q.removeFront(rec.count)
			if m := p.metrics; m != nil {
				now := p.clk.Now()
				m.durableWait.ObserveDuration(now.Sub(rec.aggregatedAt))
				m.batchTotal.ObserveDuration(now.Sub(rec.enqueuedAt))
				if p.spans != nil {
					// End-to-end batch span: oldest enqueue → durable release.
					p.spans.Record(obs.Span{
						Name: "batch", ID: rec.id, Extra: int64(rec.count),
						Start: rec.enqueuedAt, Duration: now.Sub(rec.enqueuedAt),
					})
				}
			}
			if p.trace {
				p.params.logger().Debug("batch durable",
					"batch", rec.id, "updates", rec.count, "objects", rec.objects,
					"max_ts", rec.maxTs, "total_ms", p.clk.Since(rec.enqueuedAt).Milliseconds())
			}
			pending = pending[1:]
		}
	}
}

func (p *pipeline) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.params.logger().Error("ginja replication failed; commits will be rejected", "err", err)
	// A failed uploader means the Safety contract can no longer be
	// honoured: shut the pipeline down so blocked commits surface the
	// error instead of hanging forever.
	if p.tuner != nil {
		p.tuner.close()
	}
	p.q.close()
	p.cancel()
}

func (p *pipeline) lastErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// drainAndStop flushes pending uploads (bounded by timeout) and stops all
// goroutines. A pipeline that already failed fatally can never drain —
// fail() closed the queue and stopped the workers — so waiting out the
// timeout would only stall shutdown.
func (p *pipeline) drainAndStop(timeout time.Duration) error {
	if p.lastErr() == nil {
		p.q.drain(timeout)
	}
	if p.tuner != nil {
		p.tuner.close()
	}
	p.q.close()
	p.cancel()
	p.wg.Wait()
	return p.lastErr()
}
