package experiments

import (
	"time"

	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
)

// Figure2Result demonstrates the Batch/Safety semantics of Figure 2:
// B = 2 (every two updates trigger a synchronization) and S = 20 (the
// 21st unacknowledged update blocks the DBMS).
type Figure2Result struct {
	B, S int
	// PerUpdateBlocked is how long each of the updates spent blocked, in
	// virtual time.
	PerUpdateBlocked []time.Duration
	// Batches is the number of cloud synchronizations performed.
	Batches int64
	// FirstBlockedUpdate is the 1-based index of the first update that
	// blocked at all (0 = none did).
	FirstBlockedUpdate int
}

// Figure2 reproduces the paper's Figure 2 execution: 21 updates through
// Ginja configured with B=2, S=20 on a rig whose cloud takes 120 ms per
// round trip. Updates 1–20 return at once; update 21 blocks until the
// first synchronization is acknowledged.
func Figure2() (Figure2Result, error) {
	res := Figure2Result{B: 2, S: 20}
	run, err := writeThroughGinja(cloudsim.Profile{
		BaseLatency:       120 * time.Millisecond,
		UploadBandwidth:   10e6,
		DownloadBandwidth: 10e6,
	}, func(p *core.Params) {
		p.Batch, p.Safety = res.B, res.S
		p.BatchTimeout = 20 * time.Millisecond
		p.SafetyTimeout = 10 * time.Second
		p.Uploaders = 1 // serialise uploads so the illustration is crisp
	}, res.S+1, false)
	if err != nil {
		return res, err
	}
	res.PerUpdateBlocked, res.Batches = run.blocked, run.stats.Batches
	for i, d := range run.blocked {
		if d > 0 {
			res.FirstBlockedUpdate = i + 1
			break
		}
	}
	return res, nil
}
