package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/sealer"
	"github.com/ginja-dr/ginja/internal/sim"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// This file measures the parallel DB-object data path: how much virtual
// wall clock a multi-part dump upload and a full disaster recovery cost
// at a given parallelism, on the deterministic simulated cloud. Because
// every cloud request sleeps on the virtual clock, N concurrent requests
// with the same deadline cost one latency of virtual time — so the
// serial-vs-parallel ratio measured here is exactly the latency-hiding
// win, free of scheduler noise.

// DatapathOptions configures one dump+recovery measurement.
type DatapathOptions struct {
	// Rows and ValueBytes size the database (and therefore the dump).
	Rows       int
	ValueBytes int
	// MaxObjectSize splits the dump into parts. Keep it small relative to
	// Rows*ValueBytes so several parts exist.
	MaxObjectSize int64
	// Parallel is the CheckpointUploaders/RecoveryFetchers setting of the
	// parallel run (the serial run always uses 1). Default 5.
	Parallel int
}

func (o DatapathOptions) withDefaults() DatapathOptions {
	if o.Rows == 0 {
		o.Rows = 220
	}
	if o.ValueBytes == 0 {
		o.ValueBytes = 512
	}
	if o.MaxObjectSize == 0 {
		o.MaxObjectSize = 16 << 10
	}
	if o.Parallel == 0 {
		o.Parallel = 5
	}
	return o
}

// DatapathRun is one measured configuration.
type DatapathRun struct {
	Parallelism int `json:"parallelism"`
	// DumpUploadMs is the virtual time from checkpoint submission to the
	// dump being durable (all parts PUT, view updated; GC excluded).
	DumpUploadMs float64 `json:"dump_upload_ms"`
	// RecoveryMs is the virtual time RecoverAt spent rebuilding a fresh
	// machine (LIST + all GETs + apply).
	RecoveryMs float64 `json:"recovery_ms"`
	// DumpParts is how many parts the measured dump split into.
	DumpParts int `json:"dump_parts"`
	// RecoveryObjects is how many cloud objects recovery fetched.
	RecoveryObjects int `json:"recovery_objects"`
}

// StreamingResult reports the streamed part-sealed data path: the memory
// high-water mark of the parallel dump against its O(uploaders ×
// MaxObjectSize) bound.
type StreamingResult struct {
	Parallelism int `json:"parallelism"`
	// DumpParts is how many part-sealed parts the measured dump produced.
	DumpParts    int     `json:"dump_parts"`
	DumpUploadMs float64 `json:"dump_upload_ms"`
	// LocalDBBytes is the local database size at dump time — the O(DB)
	// quantity the old data path kept resident.
	LocalDBBytes int64 `json:"local_db_bytes"`
	// PeakStreamBytes is the measured high-water mark of the bytes resident
	// in the streaming data path: file chunks read but not yet deflated,
	// plus sealed parts not yet PUT.
	PeakStreamBytes int64 `json:"peak_stream_bytes"`
	// BoundBytes is 2 × CheckpointUploaders × MaxObjectSize; WithinBound
	// asserts PeakStreamBytes stayed under it.
	BoundBytes  int64 `json:"bound_bytes"`
	WithinBound bool  `json:"within_bound"`
	// QueueBytesAfter is ginja_checkpoint_queue_bytes after the dump
	// drained (must return to zero — no payload leaks in the accounting).
	QueueBytesAfter int64 `json:"queue_bytes_after"`
}

// DatapathResult is the serial-vs-parallel comparison plus the sealer
// allocation profile, the machine-readable content of BENCH_datapath.json.
type DatapathResult struct {
	Serial          DatapathRun `json:"serial"`
	Parallel        DatapathRun `json:"parallel"`
	DumpSpeedup     float64     `json:"dump_speedup"`
	RecoverySpeedup float64     `json:"recovery_speedup"`
	// SealAllocsPerOp is allocations per Sealer.Seal call on the
	// compressed path (the hot steady-state configuration).
	SealAllocsPerOp float64 `json:"seal_allocs_per_op"`
	// OpenAllocsPerOp is allocations per Sealer.Open on the same path.
	OpenAllocsPerOp float64 `json:"open_allocs_per_op"`
	// Streaming covers the part-sealed streamed data path (taken from the
	// parallel run).
	Streaming StreamingResult `json:"streaming"`
	// DeltaCheckpoint compares incremental delta checkpoints against full
	// re-dumps on a 1 %-dirty workload (see deltabench.go).
	DeltaCheckpoint *DeltaBenchResult `json:"delta_checkpoint"`
}

// millis renders a duration in (fractional) milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bulkRun is the one bulk-path driver: a primary on a rig (40 ms
// jitter-free WAN, so paired runs see identical latency) whose database
// was filled and flushed, then checkpointed, closed and recovered on a
// fresh machine — every window measured in virtual time.
type bulkRun struct {
	rig    *sim.Rig
	reg    *obs.Registry
	params core.Params
	g      *core.Ginja
	db     *minidb.DB
}

// startBulk boots a primary whose every checkpoint crosses DumpThreshold,
// with dumps split at maxObjectSize and parallel uploaders/fetchers, fills
// rows × valueBytes and drains the commit path. tune adjusts the params
// before boot (nil: none).
func startBulk(rows, valueBytes int, maxObjectSize int64, parallel int, tune func(*core.Params)) (b *bulkRun, err error) {
	rig := sim.NewRig(sim.WAN(40*time.Millisecond, 0), 1)
	b = &bulkRun{rig: rig, reg: obs.NewRegistry(), params: rig.Params()}
	b.params.Metrics = b.reg
	b.params.Batch = 4
	b.params.Safety = 4096
	b.params.BatchTimeout = 50 * time.Millisecond
	b.params.SafetyTimeout = 2 * time.Minute
	b.params.DumpThreshold = 1.0
	b.params.MaxObjectSize = maxObjectSize
	b.params.CheckpointUploaders = parallel
	b.params.RecoveryFetchers = parallel
	if tune != nil {
		tune(&b.params)
	}
	if b.g, err = rig.Boot(nil, b.params); err != nil {
		return nil, err
	}
	if b.db, err = rig.OpenKV(b.g); err != nil {
		return nil, err
	}
	if err := sim.PutRows(b.db, "key-%06d", rows, strings.Repeat("v", valueBytes)); err != nil {
		return nil, err
	}
	if !b.g.Flush(5 * time.Minute) {
		return nil, fmt.Errorf("flush did not drain")
	}
	return b, nil
}

// checkpoint issues a DBMS checkpoint, waits until it has settled —
// uploaded, recorded and garbage-collected (SyncCheckpoints) — checks that
// it produced an object of kind ("dump" or "delta") and returns the
// virtual time from submission to durable: the checkpointer's own upload
// histogram, which stops before garbage collection starts.
func (b *bulkRun) checkpoint(kind string) (time.Duration, error) {
	upload := b.reg.Histogram("ginja_checkpoint_upload_seconds", "", obs.Labels{"type": kind}, nil)
	n, sum := upload.Count(), upload.Sum()
	if err := b.db.Checkpoint(); err != nil {
		return 0, err
	}
	b.g.SyncCheckpoints(500 * time.Second)
	if upload.Count() == n {
		if err := b.g.Err(); err != nil {
			return 0, fmt.Errorf("replication failed: %w", err)
		}
		return 0, fmt.Errorf("checkpoint crossing never completed (did not cross DumpThreshold?)")
	}
	return time.Duration((upload.Sum() - sum) * float64(time.Second)), nil
}

// close stops the primary — which drains uploads and finishes GC
// deterministically — and returns its final counters.
func (b *bulkRun) close() (core.Stats, error) {
	if err := b.g.Close(); err != nil {
		return core.Stats{}, fmt.Errorf("close: %w", err)
	}
	return b.g.Stats(), nil
}

// dataFiles lists the database's data files (not WAL, not control) on fsys.
func dataFiles(fsys vfs.FS) ([]string, error) {
	files, err := vfs.Walk(fsys, "")
	if err != nil {
		return nil, err
	}
	proc := dbevent.NewPGProcessor()
	return slices.DeleteFunc(files, func(p string) bool { return proc.FileKind(p) != dbevent.KindData }), nil
}

// localDataBytes sizes the database's data files on fsys: the O(DB)
// quantity a full dump reads under the stop-writes gate and ships.
func localDataBytes(fsys vfs.FS) (int64, error) {
	files, err := dataFiles(fsys)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range files {
		fi, err := fsys.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// streamSample captures the streaming-path observations of one run.
type streamSample struct {
	peakStreamBytes int64
	localDBBytes    int64
	queueBytesAfter int64
}

// measureDatapath runs one full scenario — boot, workload, dump,
// disaster recovery — at the given parallelism, all in virtual time.
func measureDatapath(opts DatapathOptions, parallel int) (DatapathRun, streamSample, error) {
	run := DatapathRun{Parallelism: parallel}
	var sample streamSample
	b, err := startBulk(opts.Rows, opts.ValueBytes, opts.MaxObjectSize, parallel, nil)
	if err != nil {
		return run, sample, err
	}

	// The measured window: checkpoint submission → dump durable.
	upload, err := b.checkpoint("dump")
	if err != nil {
		return run, sample, fmt.Errorf("dump: %w", err)
	}
	run.DumpUploadMs = millis(upload)
	stats, err := b.close()
	if err != nil {
		return run, sample, err
	}
	sample.peakStreamBytes = stats.PeakStreamBytes
	sample.queueBytesAfter = stats.CheckpointBytesBuffered

	// Sampled after the checkpoint so the engine has flushed its pages
	// into the data files the dump actually streamed.
	if sample.localDBBytes, err = localDataBytes(b.g.FS()); err != nil {
		return run, sample, err
	}

	// Count what recovery will fetch (post-GC listing).
	infos, err := b.rig.Store.List(context.Background(), "")
	if err != nil {
		return run, sample, err
	}
	for _, info := range infos {
		if strings.HasPrefix(info.Name, "DB/") &&
			(strings.Contains(info.Name, ".p") || strings.Contains(info.Name, ".s")) {
			run.DumpParts++
		}
	}
	run.RecoveryObjects = len(infos)

	// Disaster recovery on a fresh machine, same parallelism.
	_, recovery, err := b.rig.RecoverFresh(b.params)
	if err != nil {
		return run, sample, err
	}
	run.RecoveryMs = millis(recovery)
	return run, sample, nil
}

// sealAllocProfile measures allocations per Seal and per Open on the
// compressed path with a dump-part-sized payload, using the runtime's
// allocation counters (so it works outside `go test`).
func sealAllocProfile() (sealAllocs, openAllocs float64, err error) {
	s, err := sealer.New(sealer.Options{Compress: true})
	if err != nil {
		return 0, 0, err
	}
	page := append(bytes.Repeat([]byte{0}, 128), bytes.Repeat([]byte("row-data-0123456789"), 47)...)
	payload := bytes.Repeat(page, 64) // ≈64 KiB
	sealed, err := s.Seal(payload)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < 4; i++ { // warm the pools
		if _, err := s.Seal(payload); err != nil {
			return 0, 0, err
		}
		if _, err := s.Open(sealed); err != nil {
			return 0, 0, err
		}
	}
	const iters = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if _, err := s.Seal(payload); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	sealAllocs = float64(after.Mallocs-before.Mallocs) / iters
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if _, err := s.Open(sealed); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	openAllocs = float64(after.Mallocs-before.Mallocs) / iters
	return sealAllocs, openAllocs, nil
}

// RunDatapath measures the serial baseline and the parallel data path on
// identical deterministic scenarios and reports the speedups, plus the
// streaming-path memory bound.
func RunDatapath(opts DatapathOptions) (*DatapathResult, error) {
	opts = opts.withDefaults()
	serial, _, err := measureDatapath(opts, 1)
	if err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	parallel, sample, err := measureDatapath(opts, opts.Parallel)
	if err != nil {
		return nil, fmt.Errorf("parallel run: %w", err)
	}
	res := &DatapathResult{Serial: serial, Parallel: parallel}
	if parallel.DumpUploadMs > 0 {
		res.DumpSpeedup = serial.DumpUploadMs / parallel.DumpUploadMs
	}
	if parallel.RecoveryMs > 0 {
		res.RecoverySpeedup = serial.RecoveryMs / parallel.RecoveryMs
	}
	res.SealAllocsPerOp, res.OpenAllocsPerOp, err = sealAllocProfile()
	if err != nil {
		return nil, err
	}
	bound := 2 * int64(opts.Parallel) * opts.MaxObjectSize
	res.Streaming = StreamingResult{
		Parallelism:     opts.Parallel,
		DumpParts:       parallel.DumpParts,
		DumpUploadMs:    parallel.DumpUploadMs,
		LocalDBBytes:    sample.localDBBytes,
		PeakStreamBytes: sample.peakStreamBytes,
		BoundBytes:      bound,
		WithinBound:     sample.peakStreamBytes > 0 && sample.peakStreamBytes <= bound,
		QueueBytesAfter: sample.queueBytesAfter,
	}
	// The delta-checkpoint comparison scales off the same knobs: a larger
	// database than the dump measurement (deltas only matter when the
	// base dwarfs the dirty set) at the same part size and parallelism.
	dopts := DeltaBenchOptions{
		Rows:          4 * opts.Rows,
		MaxObjectSize: opts.MaxObjectSize,
		Parallel:      opts.Parallel,
	}
	if opts.Rows < 100 { // smoke scenario: fewer crossings, shorter chain
		dopts.Rounds = 3
	}
	res.DeltaCheckpoint, err = RunDeltaBench(dopts)
	if err != nil {
		return nil, fmt.Errorf("delta-checkpoint bench: %w", err)
	}
	return res, nil
}

// Fprint renders the result as the human-readable summary `ginja-bench
// json -path datapath` prints above the JSON.
func (r *DatapathResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "dump upload: %8.1f ms serial -> %8.1f ms at parallelism %d (%.2fx, %d parts)\n",
		r.Serial.DumpUploadMs, r.Parallel.DumpUploadMs, r.Parallel.Parallelism,
		r.DumpSpeedup, r.Parallel.DumpParts)
	fmt.Fprintf(w, "recovery:    %8.1f ms serial -> %8.1f ms at parallelism %d (%.2fx, %d objects)\n",
		r.Serial.RecoveryMs, r.Parallel.RecoveryMs, r.Parallel.Parallelism,
		r.RecoverySpeedup, r.Parallel.RecoveryObjects)
	fmt.Fprintf(w, "sealer:      %.1f allocs/op seal, %.1f allocs/op open (compressed path)\n",
		r.SealAllocsPerOp, r.OpenAllocsPerOp)
	s := r.Streaming
	fmt.Fprintf(w, "streaming:   peak %d B resident of %d B bound (db %d B, %d parts)\n",
		s.PeakStreamBytes, s.BoundBytes, s.LocalDBBytes, s.DumpParts)
	d := r.DeltaCheckpoint
	fmt.Fprintf(w, "delta ckpt:  %d B delta vs %d B full re-dump (%.1f%%, %d/%d rows dirty); gate %d B vs %d B (%.1f%%)\n",
		d.DeltaBytes, d.FullRedumpBytes, 100*d.BytesRatio, d.DirtyRows, d.Rows,
		d.GateBytesDelta, d.GateBytesFull, 100*d.GateRatio)
	fmt.Fprintf(w, "             chain(%d) recovery %.1f ms vs base-only %.1f ms (%.2fx); saved %d B; identical=%v\n",
		d.ChainLen, d.ChainRecoveryMs, d.BaseRecoveryMs, d.RecoveryRatio, d.CheckpointBytesSaved, d.RecoveredIdentical)
}

// Check enforces the data path's contracts, so that `make verify`
// (bench-data-smoke) fails the build when one regresses.
func (r *DatapathResult) Check() error {
	// The streamed data path: the dump split into parts, its peak resident
	// bytes stayed under 2 × CheckpointUploaders × MaxObjectSize, and
	// nothing stayed queued after close.
	s := r.Streaming
	if !s.WithinBound || s.DumpParts < 2 || s.QueueBytesAfter != 0 {
		return fmt.Errorf(
			"streaming data path regressed: within_bound=%v (peak=%d bound=%d) parts=%d queue_bytes_after=%d",
			s.WithinBound, s.PeakStreamBytes, s.BoundBytes, s.DumpParts, s.QueueBytesAfter)
	}
	// Delta checkpoints: a 1 %-dirty crossing ships and gates a small
	// fraction of a full re-dump, recovering through a maximum-length
	// chain stays within 2x of a fresh base, the two formats materialize
	// byte-identical machines, and the streaming memory bound is unchanged.
	d := r.DeltaCheckpoint
	if d.BytesRatio > 0.15 || d.GateRatio > 0.15 || d.ChainLen < 1 ||
		d.RecoveryRatio > 2 || !d.RecoveredIdentical || !d.WithinBound {
		return fmt.Errorf(
			"delta checkpoints regressed: bytes_ratio=%.3f gate_ratio=%.3f (want <= 0.15) chain_len=%d recovery_ratio=%.2f (want <= 2) identical=%v within_bound=%v (peak=%d bound=%d)",
			d.BytesRatio, d.GateRatio, d.ChainLen, d.RecoveryRatio,
			d.RecoveredIdentical, d.WithinBound, d.PeakStreamBytes, d.BoundBytes)
	}
	return nil
}
