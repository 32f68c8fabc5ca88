// Package experiments implements the paper's evaluation harness: every
// table and figure of §3, §7 and §8 can be regenerated through the
// functions here (used by cmd/ginja-bench and the repository's Go
// benchmarks). Cost experiments (Figures 1 and 4, Table 2, §7.3) are
// analytic; performance experiments (Figures 5–7, Tables 3–4) run the real
// Ginja stack — minidb + interception + commit pipeline — against the
// simulated cloud with the WAN latency profile fitted from the paper's
// Table 3.
package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/innoengine"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
	"github.com/ginja-dr/ginja/internal/workload/tpcc"
)

// Baseline selects what sits under the DBMS in a TPC-C run.
type Baseline string

// Baselines, mirroring the first columns of Figure 5.
const (
	// BaselineNative runs the DBMS directly on the local FS (the paper's
	// ext4 column).
	BaselineNative Baseline = "native"
	// BaselineIntercept adds the interception layer with a no-op observer
	// (the paper's FUSE column: interception cost without Ginja).
	BaselineIntercept Baseline = "intercept"
	// BaselineGinja runs the full Ginja stack.
	BaselineGinja Baseline = "ginja"
)

// TPCCOptions configures one TPC-C measurement cell.
type TPCCOptions struct {
	// EngineName selects the DBMS personality: "postgresql" or "mysql".
	EngineName string
	// Baseline selects native / intercept / ginja.
	Baseline Baseline
	// Params is the Ginja configuration (ignored for baselines).
	Params core.Params
	// Duration is the measured window.
	Duration time.Duration
	// Workload scales TPC-C. Zero values take laptop-scale defaults;
	// the paper uses 1 warehouse/5 terminals for PostgreSQL and
	// 2 warehouses/60 terminals for MySQL.
	Workload tpcc.Config
	// TimeScale compresses the simulated cloud latency (see cloudsim);
	// metrics still report unscaled model values. Default 100.
	TimeScale float64
	// Profile is the network model; defaults to the WAN profile.
	Profile cloudsim.Profile
	// Seed for the simulator.
	Seed int64
}

func (o TPCCOptions) normalized() TPCCOptions {
	if o.EngineName == "" {
		o.EngineName = "postgresql"
	}
	if o.Baseline == "" {
		o.Baseline = BaselineGinja
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.TimeScale == 0 {
		o.TimeScale = 100
	}
	if o.Profile == (cloudsim.Profile{}) {
		o.Profile = cloudsim.WANProfile()
	}
	if o.Workload.Warehouses == 0 {
		o.Workload = tpcc.DefaultConfig()
		if o.EngineName == "mysql" {
			// The paper drives MySQL with 2 warehouses and more
			// terminals (§8).
			o.Workload.Warehouses = 2
			o.Workload.Terminals = 12
		}
	}
	return o
}

// engineFor builds the engine instance for a personality name.
func engineFor(name string) (minidb.Engine, error) {
	switch name {
	case "postgresql":
		return pgengine.New(), nil
	case "mysql":
		return innoengine.New(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown engine %q", name)
	}
}

// TPCCResult is one measurement cell.
type TPCCResult struct {
	// TpmC and TpmTotal are the paper's throughput metrics.
	TpmC     float64
	TpmTotal float64
	// Ginja holds the middleware counters (zero for baselines).
	Ginja core.Stats
	// CloudOps are the metered cloud operations (zero for baselines).
	CloudOps cloud.OpCounts
	// ModelledPutLatency aggregates the WAN-model PUT latencies (what a
	// real deployment would have observed, independent of TimeScale).
	ModelledPutLatency cloud.LatencyStats
	// Resources samples the process during the run (Table 4 proxy).
	Resources ResourceUsage
	// WALObjectMeanBytes is the average uploaded WAL object size.
	WALObjectMeanBytes float64
}

// RunTPCC executes one TPC-C measurement cell end to end: build the
// database, attach (or not) Ginja, run the workload for the configured
// duration, and collect every metric the paper's tables need.
func RunTPCC(ctx context.Context, opts TPCCOptions) (TPCCResult, error) {
	opts = opts.normalized()
	var res TPCCResult

	engine, err := engineFor(opts.EngineName)
	if err != nil {
		return res, err
	}
	localFS := vfs.NewMemFS()

	var (
		dbFS    vfs.FS
		g       *core.Ginja
		metered *cloud.MeteredStore
		sim     *cloudsim.Store
	)
	switch opts.Baseline {
	case BaselineNative:
		dbFS = localFS
	case BaselineIntercept:
		dbFS = vfs.NewInterceptFS(localFS, nil)
	case BaselineGinja:
		sim = cloudsim.New(cloud.NewMemStore(), cloudsim.Options{
			Profile:   opts.Profile,
			TimeScale: opts.TimeScale,
			Seed:      opts.Seed,
		})
		metered = cloud.NewMeteredStore(sim, cloud.AmazonS3May2017())
		proc := dbevent.ForEngine(opts.EngineName)
		g, err = core.New(localFS, metered, proc, opts.Params)
		if err != nil {
			return res, err
		}
		if err := g.Boot(ctx); err != nil {
			return res, err
		}
		defer g.Close()
		dbFS = g.FS()
	default:
		return res, fmt.Errorf("experiments: unknown baseline %q", opts.Baseline)
	}

	db, err := minidb.Open(dbFS, engine, minidb.Options{})
	if err != nil {
		return res, err
	}
	defer db.Close()
	if err := tpcc.Load(db, opts.Workload); err != nil {
		return res, err
	}
	// Measure only the steady-state workload: reset counters after load.
	if metered != nil {
		metered.Reset()
	}
	if sim != nil {
		sim.ResetLatencyModel()
	}
	sampler := NewResourceSampler()

	driver := tpcc.NewDriver(db, opts.Workload)
	bench, err := driver.Run(ctx, opts.Duration)
	if err != nil {
		return res, err
	}
	res.Resources = sampler.Sample()
	res.TpmC = bench.TpmC
	res.TpmTotal = bench.TpmTotal

	if g != nil {
		if !g.Flush(30 * time.Second) {
			return res, fmt.Errorf("experiments: ginja did not drain")
		}
		if err := g.Err(); err != nil {
			return res, fmt.Errorf("experiments: ginja error: %w", err)
		}
		res.Ginja = g.Stats()
		res.CloudOps = metered.Counts()
		res.ModelledPutLatency = sim.PutLatencyModel()
		if res.Ginja.WALObjectsUploaded > 0 {
			res.WALObjectMeanBytes = float64(res.Ginja.WALBytesUploaded) / float64(res.Ginja.WALObjectsUploaded)
		}
	}
	return res, nil
}
