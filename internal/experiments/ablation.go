package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/sim"
)

// pageRun is what writeThroughGinja measured, in virtual time.
type pageRun struct {
	stats   core.Stats
	blocked []time.Duration // per write: how long it waited on the WAN
	drain   time.Duration   // first write until the queue drained
}

// writeThroughGinja boots a Ginja on a rig over profile (tune adjusts the
// rig's parameters), pushes `writes` 8 KiB page writes through the
// intercepted WAL path exactly like a DBMS would, and drains. samePage
// repeats one page (the aggregation-friendly pattern); otherwise pages
// are distinct.
func writeThroughGinja(profile cloudsim.Profile, tune func(*core.Params), writes int, samePage bool) (pageRun, error) {
	var run pageRun
	rig := sim.NewRig(profile, 1)
	params := rig.Params()
	tune(&params)
	g, err := rig.Boot(nil, params)
	if err != nil {
		return run, err
	}
	defer g.Close()
	f, err := g.FS().OpenFile(pgengine.SegmentPath(0), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return run, err
	}
	defer f.Close()
	// A page full of records: an all-zero one would ship as a zero fill.
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(1 + i%255)
	}
	t0 := rig.Clock.Now()
	for i := 0; i < writes; i++ {
		off := int64(0)
		if !samePage {
			off = int64(i%1024) * 8192
		}
		start := rig.Clock.Now()
		if _, err := f.WriteAt(page, off); err != nil {
			return run, fmt.Errorf("write %d: %w", i+1, err)
		}
		run.blocked = append(run.blocked, rig.Clock.Since(start))
	}
	if !g.Flush(drainTimeout) {
		return run, fmt.Errorf("experiments: flush timed out")
	}
	run.stats, run.drain = g.Stats(), rig.Clock.Since(t0)
	return run, nil
}

// AblationAggregation quantifies write aggregation: the same page-rewrite
// workload in batches of 100 vs one update per batch, where there is
// nothing to coalesce (DESIGN.md §5).
type AblationAggregation struct {
	Writes          int
	PutsAggregated  int64
	PutsNaive       int64
	SavingsX        float64
	BytesAggregated int64
	BytesNaive      int64
}

// RunAblationAggregation performs the aggregation ablation on an instant
// store.
func RunAblationAggregation(writes int) (AblationAggregation, error) {
	res := AblationAggregation{Writes: writes}
	run := func(batch int) (core.Stats, error) {
		r, err := writeThroughGinja(cloudsim.Profile{}, func(p *core.Params) {
			p.Batch = batch
			p.Safety = 10000
			p.BatchTimeout = 20 * time.Millisecond
		}, writes, true)
		return r.stats, err
	}
	with, err := run(100)
	if err != nil {
		return res, err
	}
	without, err := run(1)
	if err != nil {
		return res, err
	}
	res.PutsAggregated = with.WALObjectsUploaded
	res.PutsNaive = without.WALObjectsUploaded
	res.BytesAggregated = with.WALBytesUploaded
	res.BytesNaive = without.WALBytesUploaded
	if res.PutsAggregated > 0 {
		res.SavingsX = float64(res.PutsNaive) / float64(res.PutsAggregated)
	}
	return res, nil
}

// AblationUploadersRow is one pool size in the uploader sweep.
type AblationUploadersRow struct {
	Uploaders int
	Drain     time.Duration // virtual
}

// RunAblationUploaders sweeps the uploader-pool size (the paper found 5
// best in its environment) over a burst of one-object-per-write uploads
// through the WAN profile.
func RunAblationUploaders(pools []int, writes int) ([]AblationUploadersRow, error) {
	var rows []AblationUploadersRow
	for _, n := range pools {
		r, err := writeThroughGinja(cloudsim.WANProfile(), func(p *core.Params) {
			p.Batch = 1
			p.Safety = writes * 2
			p.Uploaders = n
			p.BatchTimeout = 10 * time.Millisecond
		}, writes, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: uploaders=%d: %w", n, err)
		}
		rows = append(rows, AblationUploadersRow{Uploaders: n, Drain: r.drain})
	}
	return rows, nil
}

// AblationObjectSplitRow is one object-size cap in the split sweep.
type AblationObjectSplitRow struct {
	CapMB   int64
	Objects int64
	Bytes   int64
}

// RunAblationObjectSplit sweeps the object-size cap (the 20 MB split of
// §5.2) over one batch of 1 024 distinct 8 KiB pages: an 8 MiB contiguous
// run.
func RunAblationObjectSplit(capsMB []int64) ([]AblationObjectSplitRow, error) {
	var rows []AblationObjectSplitRow
	for _, capMB := range capsMB {
		r, err := writeThroughGinja(cloudsim.Profile{}, func(p *core.Params) {
			p.Batch = 1024
			p.Safety = 100000
			p.BatchTimeout = 50 * time.Millisecond
			p.MaxObjectSize = capMB << 20
		}, 1024, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: cap=%dMB: %w", capMB, err)
		}
		rows = append(rows, AblationObjectSplitRow{CapMB: capMB, Objects: r.stats.WALObjectsUploaded, Bytes: r.stats.WALBytesUploaded})
	}
	return rows, nil
}

// AblationDumpThresholdRow is one threshold in the dump sweep.
type AblationDumpThresholdRow struct {
	Threshold    float64
	Dumps        int64
	BytesHeld    int64 // cloud occupancy at the end
	BytesShipped int64 // total DB bytes uploaded
}

// RunAblationDumpThreshold sweeps the dump trigger (150 % in the paper):
// lower thresholds dump more often (more upload traffic, less storage
// held); higher thresholds accumulate incremental checkpoints. Six rounds
// of 16 updates, each ending in a checkpoint that settles before the next
// round starts.
func RunAblationDumpThreshold(thresholds []float64) ([]AblationDumpThresholdRow, error) {
	var rows []AblationDumpThresholdRow
	for _, th := range thresholds {
		row, err := dumpThresholdRun(th)
		if err != nil {
			return nil, fmt.Errorf("experiments: threshold %.1f: %w", th, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func dumpThresholdRun(th float64) (AblationDumpThresholdRow, error) {
	row := AblationDumpThresholdRow{Threshold: th}
	rig := sim.NewRig(cloudsim.Profile{}, 1)
	p := rig.Params()
	p.Batch = 8
	p.Safety = 1024
	p.BatchTimeout = 10 * time.Millisecond
	p.DumpThreshold = th
	metered := cloud.NewMeteredStore(rig.Store, cloud.AmazonS3May2017())
	g, err := rig.Boot(metered, p)
	if err != nil {
		return row, err
	}
	defer g.Close()
	db, err := rig.OpenKV(g)
	if err != nil {
		return row, err
	}
	defer db.Close()
	for round := 0; round < 6; round++ {
		if err := sim.PutRows(db, "k%02d", 16, fmt.Sprintf("round-%d-%s", round, make([]byte, 256))); err != nil {
			return row, err
		}
		if !g.Flush(drainTimeout) {
			return row, fmt.Errorf("flush timed out")
		}
		if err := db.Checkpoint(); err != nil {
			return row, err
		}
		if !g.SyncCheckpoints(drainTimeout) {
			return row, fmt.Errorf("checkpoint upload stuck")
		}
	}
	s := g.Stats()
	row.Dumps = s.Dumps
	row.BytesHeld = metered.Counts().StoredBytes
	row.BytesShipped = s.DBBytesUploaded
	return row, nil
}

// FprintAblations runs and renders all ablation experiments.
func FprintAblations(w io.Writer) error {
	agg, err := RunAblationAggregation(2000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation — write aggregation (%d same-page rewrites):\n", agg.Writes)
	fmt.Fprintf(w, "  aggregated: %d PUTs (%.1f MiB)   naive: %d PUTs (%.1f MiB)   savings: %.0f×\n",
		agg.PutsAggregated, float64(agg.BytesAggregated)/(1<<20),
		agg.PutsNaive, float64(agg.BytesNaive)/(1<<20), agg.SavingsX)

	ups, err := RunAblationUploaders([]int{1, 5, 16}, 200)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation — uploader pool size (200 objects through the WAN profile, virtual drain time):")
	for _, r := range ups {
		fmt.Fprintf(w, "  uploaders=%-3d drain %s\n", r.Uploaders, r.Drain.Round(time.Millisecond))
	}

	splits, err := RunAblationObjectSplit([]int64{1, 20, 1024})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation — object-size cap (one 8 MiB run of 1024 distinct pages):")
	for _, r := range splits {
		fmt.Fprintf(w, "  cap=%-7s objects=%-3d %.1f MiB\n", fmt.Sprintf("%dMB", r.CapMB), r.Objects, float64(r.Bytes)/(1<<20))
	}

	dumps, err := RunAblationDumpThreshold([]float64{1.2, 1.5, 3.0})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation — dump threshold (6 checkpoint rounds):")
	for _, r := range dumps {
		fmt.Fprintf(w, "  threshold=%.1f  dumps=%d  cloud-held %.1f KiB  shipped %.1f KiB\n",
			r.Threshold, r.Dumps, float64(r.BytesHeld)/1024, float64(r.BytesShipped)/1024)
	}
	return nil
}
