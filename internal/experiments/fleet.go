package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/sim"
)

// This file measures fleet mode: one process multiplexing many tenant
// databases over shared upload/fetch pools, one bucket (per-tenant
// prefixes) and one tick wheel. Each sweep point admits N tenants —
// one hot writer whose commit latency is measured, one dumping
// antagonist saturating the bulk path (N ≥ 2), the rest idle with
// timers armed, the common shape of a real fleet — and reports the
// marginal per-tenant footprint and the hot tenant's commit quantiles.
// Latencies are virtual time on the simulated WAN (deterministic);
// goroutine and heap footprints are real runtime counters.

// FleetBenchOptions configures the fleet sweep.
type FleetBenchOptions struct {
	// Sizes are the fleet sizes to sweep (default 1, 10, 100, 1000).
	Sizes []int
	// Commits is how many measured commits the hot tenant issues per
	// sweep point.
	Commits int
	// AntagonistBurst is how many near-page-size writes the antagonist
	// issues between each measured commit (checkpoint/dump traffic).
	AntagonistBurst int
}

func (o FleetBenchOptions) withDefaults() FleetBenchOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1, 10, 100, 1000}
	}
	if o.Commits == 0 {
		o.Commits = 40
	}
	if o.AntagonistBurst == 0 {
		o.AntagonistBurst = 4
	}
	return o
}

// FleetBenchRow is one sweep point.
type FleetBenchRow struct {
	Tenants int `json:"tenants"`
	// GoroutinesPerTenant / HeapBytesPerTenant are (after admitting and
	// booting every tenant − process baseline) ÷ Tenants: the all-in
	// per-tenant footprint, shared overhead amortised.
	GoroutinesPerTenant float64 `json:"goroutines_per_tenant"`
	HeapBytesPerTenant  float64 `json:"heap_bytes_per_tenant"`
	// CommitP50Ms / CommitP99Ms are the hot tenant's synchronous commit
	// (put + flush round trip) quantiles in virtual time, measured while
	// the antagonist dumps.
	CommitP50Ms float64 `json:"commit_p50_ms"`
	CommitP99Ms float64 `json:"commit_p99_ms"`
	// SafetyDeadlineMisses counts Safety-class PUTs fleet-wide that
	// out-waited their TS budget in the shared scheduler queue. The gate
	// is zero: the antagonist never starves anyone's commit window.
	SafetyDeadlineMisses int64 `json:"safety_deadline_misses"`
}

// FleetBenchResult is the machine-readable content of BENCH_fleet.json.
type FleetBenchResult struct {
	Rows []FleetBenchRow `json:"rows"`
	// SoloCommitP50Ms is the 1-tenant row's p50 (no antagonist): the
	// baseline the contention gate compares against.
	SoloCommitP50Ms float64 `json:"solo_commit_p50_ms"`
	// P50RatioAt100 is p50(100 tenants, antagonist dumping) / solo p50.
	// Gate: ≤ 1.5. Zero when the sweep has no 100-tenant row.
	P50RatioAt100 float64 `json:"p50_ratio_at_100"`
	// GoroutineGrowth10To1000 / HeapGrowth10To1000 are the fractional
	// change of the per-tenant footprint from the 10-tenant to the
	// 1000-tenant row (0.08 = +8%). Gate: ≤ 0.10 — the marginal tenant
	// stays flat as the fleet grows. Zero when either row is absent.
	GoroutineGrowth10To1000 float64 `json:"goroutine_growth_10_to_1000"`
	HeapGrowth10To1000      float64 `json:"heap_growth_10_to_1000"`
}

// fleetPoint measures one sweep point.
func fleetPoint(opts FleetBenchOptions, tenants int) (FleetBenchRow, error) {
	row := FleetBenchRow{Tenants: tenants}

	// Baseline before any fleet state exists. Two GC cycles so
	// sync.Pool victim caches from a previous sweep point drain and
	// don't smear into this point's delta.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	gor0 := runtime.NumGoroutine()

	rig := sim.NewRig(sim.WAN(40*time.Millisecond, 0), int64(tenants))
	fleet, err := rig.Fleet(nil)
	if err != nil {
		return row, err
	}
	defer fleet.Close()

	params := rig.Params()
	params.Batch = 1 // every commit is its own Safety-class PUT
	params.Safety = 8
	params.BatchTimeout = 50 * time.Millisecond
	params.SafetyTimeout = 10 * time.Second
	params.Uploaders = 1
	for i := 0; i < tenants; i++ {
		if _, err := rig.Admit(fleet, fmt.Sprintf("t%04d", i), params); err != nil {
			return row, err
		}
	}

	// The all-in footprint once every tenant is up and idle (two GC
	// cycles: retained state, not reclaimable pool scratch). The last
	// tenants' goroutines start only once the driver parks, so let the
	// instant settle first.
	rig.Clock.Sleep(0)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	row.GoroutinesPerTenant = float64(runtime.NumGoroutine()-gor0) / float64(tenants)
	if ms.HeapAlloc > heap0 {
		row.HeapBytesPerTenant = float64(ms.HeapAlloc-heap0) / float64(tenants)
	}

	hot := fleet.Tenant("t0000")
	hotDB, err := rig.OpenKV(hot)
	if err != nil {
		return row, err
	}
	var antaDB *minidb.DB
	if tenants >= 2 {
		if antaDB, err = rig.OpenKV(fleet.Tenant("t0001")); err != nil {
			return row, err
		}
	}

	// Measured workload: between each synchronous hot commit the
	// antagonist writes a burst of near-page-size rows and checkpoints,
	// so its dump/checkpoint PUTs contend with the hot tenant's
	// Safety-class PUTs on the shared upload pool throughout.
	pad := strings.Repeat("x", 400)
	lats := make([]time.Duration, 0, opts.Commits)
	for i := 0; i < opts.Commits; i++ {
		if antaDB != nil {
			for j := 0; j < opts.AntagonistBurst; j++ {
				if err := antaDB.Update(func(tx *minidb.Txn) error {
					return tx.Put("kv", []byte(fmt.Sprintf("a%03d", (i*opts.AntagonistBurst+j)%128)), []byte(pad))
				}); err != nil {
					return row, err
				}
			}
			if err := antaDB.Checkpoint(); err != nil {
				return row, err
			}
		}
		t0 := rig.Clock.Now()
		if err := hotDB.Update(func(tx *minidb.Txn) error {
			return tx.Put("kv", []byte("k"), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			return row, err
		}
		if !hot.Flush(2 * time.Minute) {
			return row, fmt.Errorf("fleet bench: hot flush timed out at %d tenants, commit %d", tenants, i)
		}
		lats = append(lats, rig.Clock.Since(t0))
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	row.CommitP50Ms = quantileMs(lats, 0.50)
	row.CommitP99Ms = quantileMs(lats, 0.99)
	row.SafetyDeadlineMisses = fleet.Stats().SafetyDeadlineMisses
	return row, nil
}

// RunFleetBench sweeps the fleet sizes and derives the gate ratios.
func RunFleetBench(opts FleetBenchOptions) (*FleetBenchResult, error) {
	opts = opts.withDefaults()
	res := &FleetBenchResult{}
	byN := make(map[int]FleetBenchRow)
	for _, n := range opts.Sizes {
		row, err := fleetPoint(opts, n)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		byN[n] = row
	}
	if r, ok := byN[1]; ok {
		res.SoloCommitP50Ms = r.CommitP50Ms
	}
	if r, ok := byN[100]; ok && res.SoloCommitP50Ms > 0 {
		res.P50RatioAt100 = r.CommitP50Ms / res.SoloCommitP50Ms
	}
	r10, ok10 := byN[10]
	r1000, ok1000 := byN[1000]
	if ok10 && ok1000 {
		if r10.GoroutinesPerTenant > 0 {
			res.GoroutineGrowth10To1000 = r1000.GoroutinesPerTenant/r10.GoroutinesPerTenant - 1
		}
		if r10.HeapBytesPerTenant > 0 {
			res.HeapGrowth10To1000 = r1000.HeapBytesPerTenant/r10.HeapBytesPerTenant - 1
		}
	}
	return res, nil
}

// Fprint renders the result as the human-readable summary `ginja-bench
// json -path fleet` prints above the JSON.
func (r *FleetBenchResult) Fprint(w io.Writer) {
	for _, row := range r.Rows {
		fmt.Fprintf(w, "fleet %5d tenants: %.2f goroutines, %6.1f KiB heap per tenant; commit p50/p99 %6.1f/%6.1f ms; %d safety misses\n",
			row.Tenants, row.GoroutinesPerTenant, row.HeapBytesPerTenant/1024,
			row.CommitP50Ms, row.CommitP99Ms, row.SafetyDeadlineMisses)
	}
	fmt.Fprintf(w, "fleet gates: p50 ratio at 100 tenants %.2fx of solo; per-tenant growth 10->1000: goroutines %+.1f%%, heap %+.1f%%\n",
		r.P50RatioAt100, 100*r.GoroutineGrowth10To1000, 100*r.HeapGrowth10To1000)
}

// Check enforces the fleet's contracts.
func (r *FleetBenchResult) Check() error {
	for _, row := range r.Rows {
		// The fairness contract: with a dumping antagonist saturating
		// the bulk path at every sweep point, no tenant's Safety-class
		// PUT ever out-waits its TS window in the shared queue.
		if row.SafetyDeadlineMisses != 0 {
			return fmt.Errorf("fleet bench regressed: %d safety deadline misses at %d tenants (want 0)",
				row.SafetyDeadlineMisses, row.Tenants)
		}
		if row.GoroutinesPerTenant <= 0 || row.GoroutinesPerTenant > 12 {
			return fmt.Errorf("fleet bench regressed: %.2f goroutines per tenant at %d tenants (want (0, 12])",
				row.GoroutinesPerTenant, row.Tenants)
		}
	}
	// Contention gate: a shared fleet must not tax the hot tenant's
	// commit latency beyond 1.5x of running alone.
	if r.P50RatioAt100 > 1.5 {
		return fmt.Errorf("fleet bench regressed: commit p50 at 100 tenants is %.2fx solo (want <= 1.5x)", r.P50RatioAt100)
	}
	// Flat-overhead gate (full sweep only — the smoke sweep has no
	// 1000-tenant row and reports zero growth).
	if r.GoroutineGrowth10To1000 > 0.10 || r.HeapGrowth10To1000 > 0.10 {
		return fmt.Errorf("fleet bench regressed: per-tenant overhead grew 10->1000 tenants: goroutines %+.1f%% heap %+.1f%% (want <= +10%%)",
			100*r.GoroutineGrowth10To1000, 100*r.HeapGrowth10To1000)
	}
	return nil
}
