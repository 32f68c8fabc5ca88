package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/sim"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// This file measures what incremental delta checkpoints buy on the
// workload they exist for — a large database where each DumpThreshold
// crossing finds only a small clustered fraction of pages dirty. The
// same deterministic workload runs twice, once with DeltaCheckpoints
// and once with classic full re-dumps, so every number is a direct
// apples-to-apples comparison on the virtual clock: checkpoint bytes
// shipped per crossing, bytes read under the stop-writes dump gate,
// and disaster recovery through a maximum-length chain versus a single
// fresh base.

// DeltaBenchOptions configures the delta-vs-full measurement.
type DeltaBenchOptions struct {
	// Rows and ValueBytes size the database. DirtyRows rows (clustered,
	// key-adjacent — the hot-page pattern) are rewritten per round.
	Rows       int
	ValueBytes int
	DirtyRows  int
	// Rounds is how many dirty→checkpoint→crossing cycles run after the
	// base dump; the delta run's MaxDeltaChain is set to Rounds so the
	// final recovery walks a maximum-length chain.
	Rounds int
	// MaxObjectSize splits the base dump into parts; Parallel is the
	// uploader/fetcher parallelism (as in DatapathOptions).
	MaxObjectSize int64
	Parallel      int
}

func (o DeltaBenchOptions) withDefaults() DeltaBenchOptions {
	if o.Rows == 0 {
		o.Rows = 880
	}
	if o.ValueBytes == 0 {
		o.ValueBytes = 512
	}
	if o.DirtyRows == 0 {
		o.DirtyRows = o.Rows / 100 // the titular 1 %-dirty workload
		if o.DirtyRows < 2 {
			o.DirtyRows = 2
		}
	}
	if o.Rounds == 0 {
		o.Rounds = 6
	}
	if o.MaxObjectSize == 0 {
		o.MaxObjectSize = 16 << 10
	}
	if o.Parallel == 0 {
		o.Parallel = 5
	}
	return o
}

// DeltaBenchResult is the delta_checkpoint section of
// BENCH_datapath.json.
type DeltaBenchResult struct {
	Rows      int `json:"rows"`
	DirtyRows int `json:"dirty_rows"`
	// LocalDBBytes is the database size at checkpoint time — what a full
	// re-dump must read under the gate and ship.
	LocalDBBytes int64 `json:"local_db_bytes"`
	// FullRedumpBytes / DeltaBytes are the sealed bytes one DumpThreshold
	// crossing uploaded in each mode (first dirty round; compression off
	// so they track payload). BytesRatio = delta/full, the headline
	// saving; the ≤ 0.15 gate is DatapathResult.Check's.
	FullRedumpBytes    int64   `json:"full_redump_bytes"`
	DeltaBytes         int64   `json:"delta_bytes"`
	BytesRatio         float64 `json:"bytes_ratio"`
	FullRedumpUploadMs float64 `json:"full_redump_upload_ms"`
	DeltaUploadMs      float64 `json:"delta_upload_ms"`
	// GateBytesFull / GateBytesDelta are the raw bytes the dump plan
	// reads while the stop-writes gate covers its files — the quantity
	// the gate window is proportional to (local reads are memory-speed
	// on the sim FS, so the window is reported in bytes, not virtual ms).
	GateBytesFull  int64   `json:"gate_bytes_full"`
	GateBytesDelta int64   `json:"gate_bytes_delta"`
	GateRatio      float64 `json:"gate_ratio"`
	// ChainLen is the delta-chain length the final recovery resolved
	// (== Rounds == MaxDeltaChain). ChainRecoveryMs restores base +
	// chain + WAL tail; BaseRecoveryMs restores the full-run store whose
	// newest object is a single fresh dump. RecoveryRatio = chain/base;
	// the ≤ 2 gate is DatapathResult.Check's.
	ChainLen        int     `json:"chain_len"`
	ChainRecoveryMs float64 `json:"chain_recovery_ms"`
	BaseRecoveryMs  float64 `json:"base_recovery_ms"`
	RecoveryRatio   float64 `json:"recovery_ratio"`
	// RecoveredIdentical: both disaster recoveries materialized their
	// primary's final data files byte-for-byte — for the chain run, base
	// + every delta + the WAL tail resolved to exactly the primary's
	// pages. (Cross-format byte-identity on a deterministic workload is
	// pinned separately by TestDeltaChainPrefixProperty in internal/core.)
	RecoveredIdentical bool `json:"recovered_identical"`
	// CheckpointBytesSaved is the run's cumulative Stats counter: bytes a
	// full re-dump would have shipped minus what the deltas shipped.
	CheckpointBytesSaved int64 `json:"checkpoint_bytes_saved"`
	// Streaming peak of the delta run against the same bound the classic
	// data path honours (2 × uploaders × MaxObjectSize): deltas must not
	// change the O(uploaders × part) memory guarantee.
	PeakStreamBytes int64 `json:"peak_stream_bytes"`
	BoundBytes      int64 `json:"bound_bytes"`
	WithinBound     bool  `json:"within_bound"`
}

// deltaBenchRun is one scenario's outcome.
type deltaBenchRun struct {
	firstBytes   int64 // sealed DB bytes uploaded by the first dirty round
	firstMs      float64
	gateBytes    int64 // raw bytes read under the gate in that round
	localDBBytes int64
	chainLen     int
	bytesSaved   int64
	peakStream   int64
	recoveryMs   float64
	recoveredOK  bool // recovery materialized the primary's data files byte-for-byte
}

// measureDeltaScenario runs boot → bulk fill → base dump → Rounds ×
// (dirty 1 % → checkpoint → crossing) → disaster recovery, with or
// without delta checkpoints, entirely in virtual time.
func measureDeltaScenario(opts DeltaBenchOptions, deltas bool) (*deltaBenchRun, error) {
	out := &deltaBenchRun{}
	b, err := startBulk(opts.Rows, opts.ValueBytes, opts.MaxObjectSize, opts.Parallel, func(p *core.Params) {
		p.Compress = false // sealed sizes track payload byte-for-byte
		if deltas {
			p.DeltaCheckpoints = true
			p.MaxDeltaChain = opts.Rounds // the final chain is maximum-length
		}
	})
	if err != nil {
		return nil, fmt.Errorf("bulk fill: %w", err)
	}
	g, db := b.g, b.db

	// Settle one checkpoint to establish the base: the crossing finds the
	// whole database dirty, so both modes serve it with a full dump (the
	// delta run's compaction bound folds an all-dirty "delta" away).
	if _, err := b.checkpoint("dump"); err != nil {
		return nil, fmt.Errorf("base dump: %w", err)
	}

	// Size the settled database: the bytes a full re-dump reads under the
	// stop-writes gate and ships per crossing.
	if out.localDBBytes, err = localDataBytes(g.FS()); err != nil {
		return nil, err
	}

	// The dirty rounds: rewrite a clustered 1 % of the rows, checkpoint,
	// and let the crossing ship a delta (or a full re-dump). Round 1 is
	// the measured crossing.
	kind := "dump"
	if deltas {
		kind = "delta"
	}
	value := strings.Repeat("v", opts.ValueBytes)
	for round := 1; round <= opts.Rounds; round++ {
		if err := sim.PutRows(db, "key-%06d", opts.DirtyRows, fmt.Sprintf("round-%d-%s", round, value)); err != nil {
			return nil, err
		}
		if !g.Flush(5 * time.Minute) {
			return nil, fmt.Errorf("round %d flush did not drain", round)
		}
		statsBefore := g.Stats()
		upload, err := b.checkpoint(kind)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		if round == 1 {
			statsAfter := g.Stats()
			out.firstBytes = statsAfter.DBBytesUploaded - statsBefore.DBBytesUploaded
			out.firstMs = millis(upload)
			if deltas {
				// The delta's raw planned payload is what its gate covered:
				// localSize minus what skipping the clean pages saved.
				out.gateBytes = out.localDBBytes - (statsAfter.CheckpointBytesSaved - statsBefore.CheckpointBytesSaved)
			} else {
				out.gateBytes = out.localDBBytes
			}
		}
	}
	final, err := b.close()
	if err != nil {
		return nil, err
	}
	out.chainLen = final.DeltaChainLen
	out.bytesSaved = final.CheckpointBytesSaved
	out.peakStream = final.PeakStreamBytes

	// Disaster recovery on a fresh machine: the delta store resolves base
	// + maximum-length chain, the full store a single fresh dump.
	target, recovery, err := b.rig.RecoverFresh(b.params)
	if err != nil {
		return nil, err
	}
	out.recoveryMs = millis(recovery)
	// Recovery's correctness contract: the rebuilt machine's data files
	// are byte-identical to the primary's. For the delta run this is the
	// whole point — base + every chained delta + the WAL tail must
	// materialize exactly the pages the primary holds.
	out.recoveredOK = true
	files, err := dataFiles(g.FS())
	if err != nil {
		return nil, err
	}
	for _, p := range files {
		want, err := vfs.ReadFile(g.FS(), p)
		if err != nil {
			return nil, err
		}
		got, err := vfs.ReadFile(target, p)
		if err != nil || !bytes.Equal(got, want) {
			out.recoveredOK = false
		}
	}
	return out, nil
}

// RunDeltaBench runs the paired delta/full scenarios and folds them into
// the comparison the gates check.
func RunDeltaBench(opts DeltaBenchOptions) (*DeltaBenchResult, error) {
	opts = opts.withDefaults()
	dr, err := measureDeltaScenario(opts, true)
	if err != nil {
		return nil, fmt.Errorf("delta run: %w", err)
	}
	fr, err := measureDeltaScenario(opts, false)
	if err != nil {
		return nil, fmt.Errorf("full-dump run: %w", err)
	}
	res := &DeltaBenchResult{
		Rows:                 opts.Rows,
		DirtyRows:            opts.DirtyRows,
		LocalDBBytes:         dr.localDBBytes,
		FullRedumpBytes:      fr.firstBytes,
		DeltaBytes:           dr.firstBytes,
		FullRedumpUploadMs:   fr.firstMs,
		DeltaUploadMs:        dr.firstMs,
		GateBytesFull:        fr.gateBytes,
		GateBytesDelta:       dr.gateBytes,
		ChainLen:             dr.chainLen,
		ChainRecoveryMs:      dr.recoveryMs,
		BaseRecoveryMs:       fr.recoveryMs,
		CheckpointBytesSaved: dr.bytesSaved,
		PeakStreamBytes:      dr.peakStream,
		BoundBytes:           2 * int64(opts.Parallel) * opts.MaxObjectSize,
	}
	if res.FullRedumpBytes > 0 {
		res.BytesRatio = float64(res.DeltaBytes) / float64(res.FullRedumpBytes)
	}
	if res.GateBytesFull > 0 {
		res.GateRatio = float64(res.GateBytesDelta) / float64(res.GateBytesFull)
	}
	if res.BaseRecoveryMs > 0 {
		res.RecoveryRatio = res.ChainRecoveryMs / res.BaseRecoveryMs
	}
	res.WithinBound = res.PeakStreamBytes > 0 && res.PeakStreamBytes <= res.BoundBytes
	res.RecoveredIdentical = dr.recoveredOK && fr.recoveredOK
	return res, nil
}
