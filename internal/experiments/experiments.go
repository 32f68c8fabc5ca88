// Package experiments implements the paper's evaluation harness: every
// table and figure of §3, §7 and §8 can be regenerated through the
// functions here (used by cmd/ginja-bench and the repository's Go
// benchmarks). Cost experiments (Figures 1 and 4, Table 2, §7.3) are
// analytic. Every WAN-shaped result (Figures 2, 5, 6 and 7, Table 3, the
// ablations) runs the real Ginja stack — minidb + interception + commit
// pipeline + checkpointer — on sim.Rig: a virtual clock and a simulated
// cloud with the WAN latency profile fitted from the paper's Table 3. Local
// CPU costs nothing on that clock, so these results are exact, and equal
// on every machine. The CPU-shaped results (Figure 5's ext4/FUSE columns,
// Figure 6's sealer cost, Table 4) are the wall-clock benchmark's rows
// (benchmark/); EXPERIMENTS.md cites them.
package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/innoengine"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/sim"
	"github.com/ginja-dr/ginja/internal/vfs"
	"github.com/ginja-dr/ginja/internal/workload/tpcc"
)

// PaperTransactions is the TPC-C transaction count of every cell
// `ginja-bench` prints.
const PaperTransactions = 2000

// drainTimeout bounds every Flush and SyncCheckpoints in virtual time.
const drainTimeout = time.Hour

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

// Cell is one Ginja configuration of the §8 grids: Batch, Safety and the
// envelope.
type Cell struct {
	Label             string
	B, S              int
	Compress, Encrypt bool
}

// params builds the cell's configuration on rig: the paper's evaluation
// settings (5 uploaders) with the cell's B/S and envelope flags.
func (c Cell) params(rig *sim.Rig) core.Params {
	p := rig.Params()
	p.Batch = c.B
	p.Safety = c.S
	p.Uploaders = 5
	p.BatchTimeout = 500 * time.Millisecond
	p.SafetyTimeout = 30 * time.Second
	p.Compress = c.Compress
	p.Encrypt = c.Encrypt
	if c.Encrypt {
		p.Password = "ginja-eval-password"
	}
	return p
}

// tpccStack is minidb with the TPC-C tables loaded, under Ginja, on a rig.
type tpccStack struct {
	rig *sim.Rig
	g   *core.Ginja
	db  *minidb.DB
	cfg tpcc.Config
}

// bootTPCC builds the stack every TPC-C figure measures: a rig over
// profile, Ginja with the engine's own event processor, the DBMS on its
// intercepted file system, and TPC-C loaded and drained to the cloud.
func bootTPCC(engineName string, profile cloudsim.Profile, cell Cell, cfg tpcc.Config, reg *obs.Registry) (*tpccStack, error) {
	engine, err := engineFor(engineName)
	if err != nil {
		return nil, err
	}
	s := &tpccStack{rig: sim.NewRig(profile, 1), cfg: cfg}
	params := cell.params(s.rig)
	params.Metrics = reg
	if s.g, err = core.New(vfs.NewMemFS(), s.rig.Store, dbevent.ForEngine(engineName), params); err != nil {
		return nil, err
	}
	err = s.g.Boot(context.Background())
	if err == nil {
		s.db, err = minidb.Open(s.g.FS(), engine, minidb.Options{})
	}
	if err == nil {
		err = tpcc.Load(s.db, cfg)
	}
	if err == nil && !s.g.Flush(drainTimeout) {
		err = fmt.Errorf("experiments: load did not drain")
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *tpccStack) close() {
	if s.db != nil {
		s.db.Close()
	}
	s.g.Close()
}

// TPCCResult is one measured cell: a fixed count of TPC-C transactions on
// the paper's WAN, counters taken after the load.
type TPCCResult struct {
	Cell         Cell
	Transactions int
	// Blocked is the virtual time the transactions waited on the WAN (for
	// the Safety contract, or behind a dump's stop-writes gate). Local CPU
	// is free on this clock, so it is the whole of the run's duration.
	Blocked time.Duration
	// WALObjects and WALBytes are the WAL PUTs the transactions caused
	// and their sealed bytes.
	WALObjects, WALBytes int64
	// PutLatency is the mean WAL PUT duration, as Ginja's own
	// ginja_wal_put_seconds histogram read it on the rig's clock.
	PutLatency time.Duration
}

// TxPerSec is the cell's WAN-bound ceiling: transactions per virtual
// second. 0 means the run never blocked at this count.
func (r TPCCResult) TxPerSec() float64 {
	if r.Blocked <= 0 {
		return 0
	}
	return float64(r.Transactions) / r.Blocked.Seconds()
}

// PutsPerKTx is the WAL PUT count per 1 000 transactions.
func (r TPCCResult) PutsPerKTx() float64 {
	return float64(r.WALObjects) * 1000 / float64(r.Transactions)
}

// MeanObjectBytes is the mean sealed WAL object size.
func (r TPCCResult) MeanObjectBytes() float64 {
	if r.WALObjects == 0 {
		return 0
	}
	return float64(r.WALBytes) / float64(r.WALObjects)
}

// walPuts sums the ginja_wal_put_seconds series (one per size class).
func walPuts(reg *obs.Registry) (n int64, sum float64) {
	for _, m := range reg.Snapshot() {
		if m.Name == "ginja_wal_put_seconds" {
			n += m.Count
			sum += m.Sum
		}
	}
	return n, sum
}

// RunTPCC is the TPC-C cell runner of Figures 5 and 6 and Table 3: load
// TPC-C under the cell's configuration on the paper's WAN (1 warehouse
// and 5 terminals for PostgreSQL; 2 warehouses and 12 terminals for
// MySQL, as in §8), then run the transactions on the goroutine that built
// the rig, the terminals taking turns, and drain.
func RunTPCC(engineName string, cell Cell, transactions int) (TPCCResult, error) {
	res := TPCCResult{Cell: cell, Transactions: transactions}
	cfg := tpcc.DefaultConfig()
	if engineName == "mysql" {
		cfg.Warehouses, cfg.Terminals = 2, 12
	}
	reg := obs.NewRegistry()
	s, err := bootTPCC(engineName, cloudsim.WANProfile(), cell, cfg, reg)
	if err != nil {
		return res, err
	}
	defer s.close()
	before := s.g.Stats()
	putsBefore, sumBefore := walPuts(reg)
	t0 := s.rig.Clock.Now()
	if _, err := tpcc.NewDriver(s.db, s.cfg).RunCount(transactions); err != nil {
		return res, err
	}
	res.Blocked = s.rig.Clock.Since(t0)
	if !s.g.Flush(drainTimeout) {
		return res, fmt.Errorf("experiments: transactions did not drain")
	}
	if err := s.g.Err(); err != nil {
		return res, fmt.Errorf("experiments: ginja error: %w", err)
	}
	after := s.g.Stats()
	res.WALObjects = after.WALObjectsUploaded - before.WALObjectsUploaded
	res.WALBytes = after.WALBytesUploaded - before.WALBytesUploaded
	puts, sum := walPuts(reg)
	if puts > putsBefore {
		res.PutLatency = time.Duration((sum - sumBefore) / float64(puts-putsBefore) * float64(time.Second))
	}
	return res, nil
}

// RunCells measures each cell of a grid in turn for one engine
// ("postgresql" → the paper's panel a, "mysql" → panel b).
func RunCells(engineName string, cells []Cell, transactions int) ([]TPCCResult, error) {
	rows := make([]TPCCResult, 0, len(cells))
	for _, cell := range cells {
		res, err := RunTPCC(engineName, cell, transactions)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", engineName, cell.Label, err)
		}
		rows = append(rows, res)
	}
	return rows, nil
}

// Figure5Cells returns the paper's Figure 5 B×S grid, ending with No-Loss
// (S=B=1). The ext4 and FUSE columns are CPU questions: the wall-clock
// benchmark's tpcc_protected answers them.
func Figure5Cells() []Cell {
	var cells []Cell
	for _, bs := range [][2]int{{1000, 10000}, {100, 10000}, {10, 10000}, {100, 1000}, {10, 1000}, {1, 1000}, {10, 100}, {1, 100}, {1, 10}} {
		cells = append(cells, Cell{Label: fmt.Sprintf("B=%d S=%d", bs[0], bs[1]), B: bs[0], S: bs[1]})
	}
	return append(cells, Cell{Label: "No-Loss (S=B=1)", B: 1, S: 1})
}

// envelopeCells crosses B/S configurations with the envelope modes.
func envelopeCells(modes ...string) []Cell {
	var cells []Cell
	for _, bs := range [][2]int{{10, 100}, {100, 1000}, {1000, 10000}} {
		for _, mode := range modes {
			cells = append(cells, Cell{
				Label:    fmt.Sprintf("%d/%d %s", bs[0], bs[1], mode),
				B:        bs[0],
				S:        bs[1],
				Compress: mode == "Comp" || mode == "C+C",
				Encrypt:  mode == "Crypt" || mode == "C+C",
			})
		}
	}
	return cells
}

// Figure6Cells returns the paper's Figure 6 grid: three B/S configurations
// × {normal, compression, encryption, both}. On this clock it measures
// the WAN side of the envelope — what smaller (or MAC-framed) objects do
// to each ceiling; the sealer's CPU cost is the wall-clock benchmark's
// sealer.* rows.
func Figure6Cells() []Cell { return envelopeCells("Normal", "Comp", "Crypt", "C+C") }

// Table3Cells returns Table 3's rows: {10/100, 100/1000, 1000/10000} ×
// {plain, C+C}.
func Table3Cells() []Cell { return envelopeCells("plain", "C+C") }
