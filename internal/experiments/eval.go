package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
	"github.com/ginja-dr/ginja/internal/workload/tpcc"
)

// RecoveryResult is one Figure 7 sample.
type RecoveryResult struct {
	Warehouses int
	// RTO is Recover's virtual duration: LIST, then the plan's GETs,
	// RecoveryFetchers at a time, through the profile.
	RTO time.Duration
	// Bytes downloaded and objects fetched by the restore.
	Bytes   int64
	Objects int
}

// RunRecovery builds a PostgreSQL-personality TPC-C database of the given
// scale under Ginja on a rig over profile — WANProfile ≈ the on-premises
// server, LANProfile ≈ an EC2 VM in the bucket's region — runs the
// transactions (they grow the WAL tail past the load's checkpoints),
// checkpoints and drains, abandons the primary, and measures a full
// Recover from the bucket on a fresh machine (Figure 7). The DBMS must
// then reopen on the restored files.
func RunRecovery(warehouses, transactions int, profile cloudsim.Profile) (RecoveryResult, error) {
	const engineName = "postgresql"
	res := RecoveryResult{Warehouses: warehouses}
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = warehouses
	cfg.Terminals = 4
	cell := Cell{B: 100, S: 1000}
	s, err := bootTPCC(engineName, profile, cell, cfg, nil)
	if err != nil {
		return res, err
	}
	defer s.g.Close() // the error paths before the disaster; a no-op after it
	if _, err := tpcc.NewDriver(s.db, cfg).RunCount(transactions); err != nil {
		return res, err
	}
	if err := s.db.Checkpoint(); err != nil {
		return res, err
	}
	if !s.g.Flush(drainTimeout) || !s.g.SyncCheckpoints(drainTimeout) {
		return res, fmt.Errorf("experiments: primary did not drain before the disaster")
	}
	// Disaster: the primary is gone, its DBMS never shut down.
	if err := s.g.Close(); err != nil {
		return res, err
	}

	g2, err := core.New(vfs.NewMemFS(), s.rig.Store, dbevent.ForEngine(engineName), cell.params(s.rig))
	if err != nil {
		return res, err
	}
	t0 := s.rig.Clock.Now()
	if err := g2.Recover(context.Background()); err != nil {
		return res, err
	}
	res.RTO = s.rig.Clock.Since(t0)
	defer g2.Close()
	bd := g2.Stats().LastRecovery
	res.Bytes, res.Objects = bd.Bytes, bd.Objects
	// The DBMS must come back and complete its own crash recovery.
	db2, err := minidb.Open(g2.FS(), pgengine.New(), minidb.Options{})
	if err != nil {
		return res, fmt.Errorf("experiments: DBMS restart after recovery: %w", err)
	}
	defer db2.Close()
	if _, err := db2.Get(tpcc.TableWarehouse, []byte(fmt.Sprintf("w:%04d", warehouses))); err != nil {
		return res, fmt.Errorf("experiments: recovered database incomplete: %w", err)
	}
	return res, nil
}

// Figure7Row is one database scale of Figure 7.
type Figure7Row struct {
	Warehouses int
	OnPremises time.Duration
	InRegionVM time.Duration
	Bytes      int64
	Objects    int
}

// Figure7 measures recovery time for each warehouse scale under both
// network profiles (on-premises vs in-region VM).
func Figure7(warehouses []int, transactions int) ([]Figure7Row, error) {
	var rows []Figure7Row
	for _, w := range warehouses {
		wan, err := RunRecovery(w, transactions, cloudsim.WANProfile())
		if err != nil {
			return nil, fmt.Errorf("figure7 W=%d on-prem: %w", w, err)
		}
		lan, err := RunRecovery(w, transactions, cloudsim.LANProfile())
		if err != nil {
			return nil, fmt.Errorf("figure7 W=%d in-region: %w", w, err)
		}
		rows = append(rows, Figure7Row{
			Warehouses: w,
			OnPremises: wan.RTO,
			InRegionVM: lan.RTO,
			Bytes:      wan.Bytes,
			Objects:    wan.Objects,
		})
	}
	return rows, nil
}
