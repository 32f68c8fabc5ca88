package sim

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// FleetConfig selects the shape of a fleet simulation drill: many tenant
// databases in one process over one simulated bucket, with admission
// churn and a single-tenant crash mid-run.
type FleetConfig struct {
	// Seed drives the workload, the churn choices and the crash victim.
	Seed int64
	// Tenants is how many databases are admitted up front.
	Tenants int
	// Writers is how many of them run a commit workload (the rest are
	// idle: booted, timers armed, pipelines empty — the common shape of
	// a big fleet). 0 means min(Tenants, 16).
	Writers int
	// StepsPerWriter is the workload length per writing tenant.
	StepsPerWriter int
	// Churn evicts this many idle tenants mid-run and admits the same
	// number of fresh ones, while the writers keep committing.
	Churn int
}

// FleetResult summarises one fleet drill.
type FleetResult struct {
	Tenants              int
	Writers              int
	Commits              int
	ChurnEvicted         int
	ChurnAdmitted        int
	CrashedTenant        string
	CrashedCut           int // recovered prefix cut for the crashed tenant (-1: empty)
	CrashedFlushed       int // flushed frontier the cut must cover (-1: none)
	SafetyDeadlineMisses int64
	VirtualElapsed       time.Duration
	// TraceHash fingerprints the fleet's cloud traffic, every tenant's
	// and the recovery's, as Result.TraceHash does a solo site's.
	TraceHash uint64
}

// fleetWriter is one tenant running a workload.
type fleetWriter struct {
	id      string
	g       *core.Ginja
	log     kvLog
	flushed int
}

// RunFleet executes one fleet drill in virtual time: admit Tenants
// databases over one simulated bucket, run commit workloads on Writers
// of them, churn admissions mid-run, crash one writing tenant (its
// subtree of the bucket goes dark mid-upload), recover it on a fresh
// machine, and check (a) the crashed tenant's consistent-prefix
// invariant and (b) that every other tenant sailed through untouched.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Tenants < 2 {
		return nil, fmt.Errorf("sim: fleet needs ≥ 2 tenants, got %d", cfg.Tenants)
	}
	writers := cfg.Writers
	if writers == 0 {
		writers = cfg.Tenants
		if writers > 16 {
			writers = 16
		}
	}
	if writers > cfg.Tenants {
		writers = cfg.Tenants
	}
	steps := cfg.StepsPerWriter
	if steps == 0 {
		steps = 40
	}
	res := &FleetResult{Tenants: cfg.Tenants, Writers: writers, CrashedCut: -2, CrashedFlushed: -1}
	fail := func(format string, args ...any) (*FleetResult, error) {
		return res, fmt.Errorf("sim: fleet seed %d: %s", cfg.Seed, fmt.Sprintf(format, args...))
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xf1ee7))

	rig := NewRig(WAN(faultLatency, 0.10), cfg.Seed)
	kill := &crashStore{inner: rig.Store, clk: rig.Clock}
	fleet, err := rig.Fleet(kill)
	if err != nil {
		return fail("new fleet: %v", err)
	}
	defer fleet.Close()

	tenantParams := func() core.Params {
		p := rig.Params()
		p.Batch = 1 + rng.Intn(4)
		p.Safety = p.Batch * (4 + rng.Intn(8))
		p.BatchTimeout = time.Duration(100+rng.Intn(900)) * time.Millisecond
		p.SafetyTimeout = time.Duration(2+rng.Intn(8)) * time.Second
		p.Uploaders = 1 // fleet shape: per-tenant goroutines stay minimal
		return p
	}

	tenantID := func(i int) string { return fmt.Sprintf("t%04d", i) }
	admit := func(id string) (*core.Ginja, error) { return rig.Admit(fleet, id, tenantParams()) }
	for i := 0; i < cfg.Tenants; i++ {
		if _, err := admit(tenantID(i)); err != nil {
			return fail("admit %d: %v", i, err)
		}
	}

	// The first `writers` tenants get databases and workloads; everyone
	// else stays idle with timers armed.
	ws := make([]*fleetWriter, writers)
	for i := range ws {
		id := tenantID(i)
		g := fleet.Tenant(id)
		db, err := rig.OpenKV(g)
		if err != nil {
			return fail("tenant %s: %v", id, err)
		}
		ws[i] = &fleetWriter{id: id, g: g, log: kvLog{db: db}, flushed: -1}
	}

	// Interleave the writers' workloads step by step so their traffic
	// actually contends on the shared pools, with the churn landing in
	// the middle of the run.
	keys := []string{"k0", "k1", "k2", "k3"}
	step := func(w *fleetWriter) error {
		switch r := rng.Intn(100); {
		case r < 65: // put
			return w.log.write(keys[rng.Intn(len(keys))], false)
		case r < 75: // delete
			return w.log.write(keys[rng.Intn(len(keys))], true)
		case r < 85:
			return w.log.db.Checkpoint()
		case r < 95:
			if w.g.Flush(2 * time.Minute) {
				w.flushed = w.log.commits() - 1
			}
		default:
			rig.Clock.Sleep(time.Duration(rng.Int63n(int64(500 * time.Millisecond))))
		}
		return nil
	}
	churnAt := steps / 2
	for s := 0; s < steps; s++ {
		if s == churnAt && cfg.Churn > 0 {
			// Evict idle tenants and admit replacements while the
			// writers keep committing around this loop.
			for c := 0; c < cfg.Churn; c++ {
				victim := tenantID(writers + rng.Intn(cfg.Tenants-writers))
				if fleet.Tenant(victim) == nil {
					continue // already churned out this round
				}
				if err := fleet.Evict(victim); err != nil {
					return fail("churn evict %s: %v", victim, err)
				}
				res.ChurnEvicted++
				fresh := fmt.Sprintf("churn%04d", c)
				if _, err := admit(fresh); err != nil {
					return fail("churn admit %s: %v", fresh, err)
				}
				res.ChurnAdmitted++
			}
		}
		for _, w := range ws {
			if err := step(w); err != nil {
				return fail("step %d tenant %s: %v", s, w.id, err)
			}
		}
	}
	for _, w := range ws {
		res.Commits += w.log.commits()
	}

	// CRASH one writing tenant: its bucket subtree goes dark with
	// whatever its pipeline had in flight, then the dead instance is
	// evicted (its Close surfaces the cut-off upload errors — a
	// legitimate crash outcome, not a drill failure).
	victim := ws[rng.Intn(len(ws))]
	res.CrashedTenant = victim.id
	victimPrefix := core.DefaultFleetPrefixRoot + "/" + victim.id + "/"
	kill.kill(victimPrefix)
	_ = fleet.Evict(victim.id)
	kill.revive(victimPrefix)

	// Every survivor keeps committing and flushing cleanly after the
	// crash — the blast radius of one tenant's death is that tenant.
	for _, w := range ws {
		if w == victim {
			continue
		}
		if err := w.log.db.Update(func(tx *minidb.Txn) error {
			return tx.Put("kv", []byte("post-crash"), []byte(w.id))
		}); err != nil {
			return fail("post-crash put %s: %v", w.id, err)
		}
		if !w.g.Flush(2 * time.Minute) {
			return fail("post-crash flush %s timed out", w.id)
		}
		if err := w.g.Err(); err != nil {
			return fail("survivor %s broken after %s crashed: %v", w.id, victim.id, err)
		}
	}

	// Recover the crashed tenant on a fresh machine, same prefix.
	g2, err := fleet.Admit(victim.id, vfs.NewMemFS(), dbevent.NewPGProcessor(), tenantParams())
	if err != nil {
		return fail("re-admit %s: %v", victim.id, err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		return fail("recover %s: %v", victim.id, err)
	}
	db2, err := openDB(g2.FS())
	if err != nil {
		return fail("DBMS restart %s: %v", victim.id, err)
	}
	recovered, err := readBack(db2, keys)
	if err != nil {
		return fail("%v", err)
	}
	res.CrashedCut = victim.log.cut(recovered)
	res.CrashedFlushed = victim.flushed
	res.SafetyDeadlineMisses = fleet.Stats().SafetyDeadlineMisses
	res.VirtualElapsed = rig.Elapsed()
	res.TraceHash = kill.traceHash()
	if res.CrashedCut == -2 {
		return fail("recovered state of %s matches no prefix of its history.\nrecovered: %v\nhistory: %+v",
			victim.id, recovered, victim.log.history)
	}
	if res.CrashedCut < res.CrashedFlushed {
		return fail("recovered cut %d of %s is older than its flushed frontier %d",
			res.CrashedCut, victim.id, res.CrashedFlushed)
	}
	return res, nil
}
