package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Rig is the one virtual-time test stand: a SimClock and a
// latency-modelled bucket on that clock, plus the driver-side verbs every
// schedule and every BENCH path repeats. The goroutine that builds a rig
// is its clock's driver (see simclock.NewSim): virtual time moves only
// while it waits — in Flush, SyncCheckpoints, a clock Sleep — and it must
// close everything it started before it returns.
type Rig struct {
	Clock *simclock.SimClock
	// Store is the simulated bucket (a MemStore behind the WAN model).
	Store *cloudsim.Store

	start time.Time
}

// WAN is the network model of every virtual-time run: a fixed round trip
// plus bandwidth terms, an order of magnitude faster than the paper's
// Lisbon→S3 link so virtual timers stay small relative to the TB/TS
// ranges the schedules draw. Fault schedules add jitter; measurements
// run jitter-free so paired runs see identical latency.
func WAN(rtt time.Duration, jitter float64) cloudsim.Profile {
	return cloudsim.Profile{
		BaseLatency:       rtt,
		UploadBandwidth:   8e6,
		DownloadBandwidth: 30e6,
		JitterFraction:    jitter,
	}
}

// NewRig starts a virtual clock and puts an empty simulated bucket on it.
func NewRig(profile cloudsim.Profile, seed int64) *Rig {
	clk := simclock.NewSim()
	r := &Rig{Clock: clk, start: clk.Now()}
	r.Store = cloudsim.New(cloud.NewMemStore(), cloudsim.Options{Profile: profile, Clock: clk, Seed: seed})
	return r
}

// Elapsed is the virtual time since the rig was built.
func (r *Rig) Elapsed() time.Duration { return r.Clock.Since(r.start) }

// Params is the configuration every rig run starts from: the defaults on
// the rig's clock with a retry backoff sized for the simulated WAN.
func (r *Rig) Params() core.Params {
	p := core.DefaultParams()
	p.Clock = r.Clock
	p.RetryBaseDelay = 20 * time.Millisecond
	return p
}

// bucket resolves a verb's store argument: nil means the rig's bucket,
// non-nil a decorator the caller put in front of it.
func (r *Rig) bucket(store cloud.ObjectStore) cloud.ObjectStore {
	if store == nil {
		return r.Store
	}
	return store
}

// newGinja builds an instance on a fresh local disk.
func (r *Rig) newGinja(store cloud.ObjectStore, params core.Params) (*core.Ginja, error) {
	return core.New(vfs.NewMemFS(), r.bucket(store), dbevent.NewPGProcessor(), params)
}

// Boot builds a primary on a fresh local disk and boots it against store
// (nil means the rig's bucket).
func (r *Rig) Boot(store cloud.ObjectStore, params core.Params) (*core.Ginja, error) {
	g, err := r.newGinja(store, params)
	if err != nil {
		return nil, fmt.Errorf("new: %w", err)
	}
	if err := g.Boot(context.Background()); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	return g, nil
}

// openDB starts the DBMS every schedule runs — minidb with the PostgreSQL
// I/O personality at small page and segment sizes — on fsys.
func openDB(fsys vfs.FS) (*minidb.DB, error) {
	return minidb.Open(fsys, pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
}

// OpenKV starts the DBMS on g's intercepted file system and creates the
// "kv" table the workloads write.
func (r *Rig) OpenKV(g *core.Ginja) (*minidb.DB, error) {
	db, err := openDB(g.FS())
	if err != nil {
		return nil, fmt.Errorf("open db: %w", err)
	}
	if err := db.CreateTable("kv", 4); err != nil {
		return nil, fmt.Errorf("create table: %w", err)
	}
	return db, nil
}

// Fleet builds a fleet over store (nil means the rig's bucket) with the
// pool sizes both fleet paths use.
func (r *Rig) Fleet(store cloud.ObjectStore) (*core.Fleet, error) {
	return core.NewFleet(core.FleetParams{
		Store:       r.bucket(store),
		Clock:       r.Clock,
		UploadSlots: 32,
		FetchSlots:  16,
		TenantCap:   2,
	})
}

// Admit adds a tenant on a fresh local disk to f and boots it.
func (r *Rig) Admit(f *core.Fleet, id string, params core.Params) (*core.Ginja, error) {
	g, err := f.Admit(id, vfs.NewMemFS(), dbevent.NewPGProcessor(), params)
	if err != nil {
		return nil, err
	}
	if err := g.Boot(context.Background()); err != nil {
		return nil, err
	}
	return g, nil
}

// RecoverFresh is the disaster drill's second half: a new instance on a
// fresh machine restores the newest state in the rig's bucket. It
// returns the restored disk and the virtual time the restore took.
func (r *Rig) RecoverFresh(params core.Params) (vfs.FS, time.Duration, error) {
	g, err := r.newGinja(nil, params)
	if err != nil {
		return nil, 0, err
	}
	target := vfs.NewMemFS()
	t0 := r.Clock.Now()
	if err := g.RecoverAt(context.Background(), target, -1); err != nil {
		return nil, 0, fmt.Errorf("recover: %w", err)
	}
	return target, r.Clock.Since(t0), nil
}

// PutRows commits n rows to the "kv" table, one transaction each, keyed
// fmt.Sprintf(keyFormat, i): bulk outside any tracked key set.
func PutRows(db *minidb.DB, keyFormat string, n int, value string) error {
	for i := 0; i < n; i++ {
		if err := db.Update(func(tx *minidb.Txn) error {
			return tx.Put("kv", []byte(fmt.Sprintf(keyFormat, i)), []byte(value))
		}); err != nil {
			return fmt.Errorf("put %d: %w", i, err)
		}
	}
	return nil
}
