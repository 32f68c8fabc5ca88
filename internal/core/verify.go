package core

import (
	"context"
	"fmt"
	"time"

	"github.com/ginja-dr/ginja/internal/vfs"
)

// VerifyResult reports the outcome of a backup verification run.
type VerifyResult struct {
	// ObjectsChecked is the number of cloud objects whose MAC verified.
	ObjectsChecked int
	// BytesDownloaded is the total sealed payload examined.
	BytesDownloaded int64
	// RestartOK / ProbeOK report steps 2 and 3 (false when the step was
	// skipped because no callback was given).
	RestartOK bool
	ProbeOK   bool
	// Duration is the wall-clock cost of the whole verification.
	Duration time.Duration
}

// Verify implements the paper's backup-verification procedure (§5.4)
// "without interfering with the production system": it runs against the
// cloud only, restoring into the scratch target file system, and plans
// from a view of its own listing — a live instance's view, and so its WAL
// timestamp counter, is left alone.
//
//  1. Every object is downloaded and its MAC verified.
//  2. The database files are rebuilt into target and restart is invoked —
//     typically opening the DBMS on target so its own crash recovery
//     validates tables and WAL segments.
//  3. probe runs service-specific queries against the restarted database.
//
// restart and probe may be nil to skip those steps.
func (g *Ginja) Verify(ctx context.Context, target vfs.FS,
	restart func(vfs.FS) error, probe func(vfs.FS) error) (VerifyResult, error) {
	clk := g.params.clock()
	start := clk.Now()
	var res VerifyResult

	ctx = withClass(ctx, classFetch)
	infos, err := g.io.list(ctx, false)
	if err != nil {
		return res, fmt.Errorf("core: verify list: %w", err)
	}
	view := NewCloudView()
	if err := view.LoadFromList(infos); err != nil {
		return res, err
	}
	// Step 1: integrity of every object — each name, DB part or WAL object
	// alike, is one complete envelope.
	for _, info := range infos {
		sealed, err := g.io.get(ctx, info.Name)
		if err != nil {
			return res, fmt.Errorf("core: verify download %s: %w", info.Name, err)
		}
		res.BytesDownloaded += int64(len(sealed))
		if _, err := g.io.seal.Open(sealed); err != nil {
			return res, fmt.Errorf("core: verify %s: %w", info.Name, err)
		}
		res.ObjectsChecked++
	}

	// Step 2: rebuild into the scratch target and restart the DBMS.
	if err := g.restoreTo(ctx, view, target, -1, &RecoveryBreakdown{Mode: "verify"}); err != nil {
		return res, err
	}
	if restart != nil {
		if err := restart(target); err != nil {
			return res, fmt.Errorf("core: verify restart: %w", err)
		}
		res.RestartOK = true
	}
	// Step 3: service-specific probe queries.
	if probe != nil {
		if err := probe(target); err != nil {
			return res, fmt.Errorf("core: verify probe: %w", err)
		}
		res.ProbeOK = true
	}
	res.Duration = clk.Since(start)
	return res, nil
}
