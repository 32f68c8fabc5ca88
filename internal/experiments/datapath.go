package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/sealer"
	"github.com/ginja-dr/ginja/internal/simclock"
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
	// PeakStreamBytes is the measured high-water mark of payload+sealed
	// bytes resident in the streaming data path.
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

// datapathProfile is the WAN model used for the measurement: the sim
// package's shape with jitter removed so both runs see identical latency.
func datapathProfile() cloudsim.Profile {
	return cloudsim.Profile{
		BaseLatency:       40 * time.Millisecond,
		UploadBandwidth:   8e6,
		DownloadBandwidth: 30e6,
		JitterFraction:    0,
	}
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
	clk := simclock.NewSim()
	stopPump := clk.Pump()
	defer stopPump()

	store := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{
		Profile: datapathProfile(),
		Clock:   clk,
		Seed:    1,
	})

	params := core.DefaultParams()
	params.Clock = clk
	params.Batch = 4
	params.Safety = 4096
	params.BatchTimeout = 50 * time.Millisecond
	params.SafetyTimeout = 2 * time.Minute
	params.RetryBaseDelay = 20 * time.Millisecond
	params.DumpThreshold = 1.0 // the measured checkpoint becomes a dump
	params.MaxObjectSize = opts.MaxObjectSize
	params.CheckpointUploaders = parallel
	params.RecoveryFetchers = parallel

	ctx := context.Background()
	localFS := vfs.NewMemFS()
	g, err := core.New(localFS, store, dbevent.NewPGProcessor(), params)
	if err != nil {
		return run, sample, err
	}
	if err := g.Boot(ctx); err != nil {
		return run, sample, fmt.Errorf("boot: %w", err)
	}
	db, err := minidb.Open(g.FS(), pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
	if err != nil {
		return run, sample, err
	}
	if err := db.CreateTable("kv", 4); err != nil {
		return run, sample, err
	}
	value := bytes.Repeat([]byte("v"), opts.ValueBytes)
	for i := 0; i < opts.Rows; i++ {
		key := fmt.Sprintf("key-%06d", i)
		if err := db.Update(func(tx *minidb.Txn) error {
			return tx.Put("kv", []byte(key), value)
		}); err != nil {
			return run, sample, fmt.Errorf("row %d: %w", i, err)
		}
	}
	if !g.Flush(5 * time.Minute) {
		return run, sample, fmt.Errorf("flush did not drain")
	}

	// The measured window: checkpoint submission → dump durable. The
	// Dumps counter increments after the last part PUT and the view
	// update, before garbage collection.
	dumpsBefore := g.Stats().Dumps
	t0 := clk.Now()
	if err := db.Checkpoint(); err != nil {
		return run, sample, err
	}
	for tries := 0; g.Stats().Dumps == dumpsBefore; tries++ {
		if err := g.Err(); err != nil {
			return run, sample, fmt.Errorf("replication failed during dump: %w", err)
		}
		if tries > 100000 {
			return run, sample, fmt.Errorf("dump never completed (checkpoint did not cross DumpThreshold?)")
		}
		clk.Sleep(5 * time.Millisecond)
	}
	run.DumpUploadMs = float64(clk.Since(t0)) / float64(time.Millisecond)
	if err := g.Close(); err != nil { // finishes the dump's GC deterministically
		return run, sample, fmt.Errorf("close: %w", err)
	}
	stats := g.Stats()
	sample.peakStreamBytes = stats.PeakStreamBytes
	sample.queueBytesAfter = stats.CheckpointBytesBuffered

	// Size the local database (the O(DB) quantity the pre-streaming data
	// path kept resident). Sampled after the checkpoint so the engine has
	// flushed its pages into the data files the dump actually streamed.
	proc := dbevent.NewPGProcessor()
	files, err := vfs.Walk(localFS, "")
	if err != nil {
		return run, sample, err
	}
	for _, p := range files {
		if proc.FileKind(p) != dbevent.KindData {
			continue
		}
		fi, err := localFS.Stat(p)
		if err != nil {
			return run, sample, err
		}
		sample.localDBBytes += fi.Size()
	}

	// Count what recovery will fetch (post-GC listing).
	infos, err := store.List(ctx, "")
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
	g2, err := core.New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
	if err != nil {
		return run, sample, err
	}
	t1 := clk.Now()
	if err := g2.RecoverAt(ctx, vfs.NewMemFS(), -1); err != nil {
		return run, sample, fmt.Errorf("recover: %w", err)
	}
	run.RecoveryMs = float64(clk.Since(t1)) / float64(time.Millisecond)
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
