package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/innoengine"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// rig bundles one protected database for tests.
type rig struct {
	localFS vfs.FS
	store   cloud.ObjectStore
	g       *core.Ginja
	db      *minidb.DB
	engine  func() minidb.Engine
	proc    func() dbevent.Processor
}

func fastParams() core.Params {
	p := core.DefaultParams()
	p.Batch = 4
	p.Safety = 64
	p.BatchTimeout = 20 * time.Millisecond
	p.SafetyTimeout = 5 * time.Second
	p.RetryBaseDelay = time.Millisecond
	return p
}

// newRig boots Ginja over a fresh database.
func newRig(t *testing.T, store cloud.ObjectStore, params core.Params,
	engine func() minidb.Engine, proc func() dbevent.Processor) *rig {
	t.Helper()
	localFS := vfs.NewMemFS()
	g, err := core.New(localFS, store, proc(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	db, err := minidb.Open(g.FS(), engine(), minidb.Options{})
	if err != nil {
		t.Fatalf("Open DB: %v", err)
	}
	r := &rig{localFS: localFS, store: store, g: g, db: db, engine: engine, proc: proc}
	t.Cleanup(func() { r.g.Close() })
	return r
}

func pgRig(t *testing.T, params core.Params) *rig {
	return newRig(t, cloud.NewMemStore(), params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
}

func innoRig(t *testing.T, params core.Params) *rig {
	return newRig(t, cloud.NewMemStore(), params,
		func() minidb.Engine { return innoengine.NewWithSizes(512, 2048+512*128, 1024, 4) },
		func() dbevent.Processor { return dbevent.NewInnoProcessor() })
}

func (r *rig) put(t *testing.T, table, key, value string) {
	t.Helper()
	if err := r.db.Update(func(tx *minidb.Txn) error {
		return tx.Put(table, []byte(key), []byte(value))
	}); err != nil {
		t.Fatalf("put: %v", err)
	}
}

// disasterRecover simulates losing the primary: a brand-new machine
// (fresh FS, fresh Ginja) recovers from the cloud and reopens the DBMS.
func (r *rig) disasterRecover(t *testing.T) *minidb.DB {
	t.Helper()
	freshFS := vfs.NewMemFS()
	g2, err := core.New(freshFS, r.store, r.proc(), r.g.Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(func() { g2.Close() })
	db2, err := minidb.Open(g2.FS(), r.engine(), minidb.Options{})
	if err != nil {
		t.Fatalf("reopen DB after recovery: %v", err)
	}
	return db2
}

func TestEndToEndDisasterRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T, core.Params) *rig
	}{
		{"postgresql", pgRig},
		{"mysql", innoRig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.mk(t, fastParams())
			if err := r.db.CreateTable("accounts", 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				r.put(t, "accounts", fmt.Sprintf("acct-%03d", i), fmt.Sprintf("balance-%d", i*100))
			}
			if !r.g.Flush(5 * time.Second) {
				t.Fatal("flush timed out")
			}
			db2 := r.disasterRecover(t)
			for i := 0; i < 50; i++ {
				v, err := db2.Get("accounts", []byte(fmt.Sprintf("acct-%03d", i)))
				if err != nil {
					t.Fatalf("acct-%03d lost in disaster: %v", i, err)
				}
				if string(v) != fmt.Sprintf("balance-%d", i*100) {
					t.Fatalf("acct-%03d = %q", i, v)
				}
			}
		})
	}
}

func TestRecoveryAfterCheckpointGC(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T, core.Params) *rig
	}{
		{"postgresql", pgRig},
		{"mysql", innoRig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.mk(t, fastParams())
			if err := r.db.CreateTable("kv", 0); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				for i := 0; i < 20; i++ {
					r.put(t, "kv", fmt.Sprintf("r%d-k%02d", round, i), "v")
				}
				if !r.g.Flush(5 * time.Second) {
					t.Fatal("flush timed out")
				}
				if err := r.db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if !r.g.SyncCheckpoints(5 * time.Second) {
					t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
				}
			}
			// Post-checkpoint commits (will live only in WAL objects).
			for i := 0; i < 10; i++ {
				r.put(t, "kv", fmt.Sprintf("tail-%02d", i), "v")
			}
			if !r.g.Flush(5 * time.Second) {
				t.Fatal("flush timed out")
			}

			// GC must have removed WAL objects covered by checkpoints.
			if s := r.g.Stats(); s.WALObjectsDeleted == 0 {
				t.Fatal("no WAL garbage collection happened")
			}
			db2 := r.disasterRecover(t)
			for round := 0; round < 3; round++ {
				for i := 0; i < 20; i++ {
					if _, err := db2.Get("kv", []byte(fmt.Sprintf("r%d-k%02d", round, i))); err != nil {
						t.Fatalf("r%d-k%02d lost: %v", round, i, err)
					}
				}
			}
			for i := 0; i < 10; i++ {
				if _, err := db2.Get("kv", []byte(fmt.Sprintf("tail-%02d", i))); err != nil {
					t.Fatalf("tail-%02d lost: %v", i, err)
				}
			}
		})
	}
}

func TestDumpTriggeredAt150Percent(t *testing.T) {
	r := pgRig(t, fastParams())
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	// Repeatedly rewrite the same keys and checkpoint: cloud DB objects
	// accumulate until the 150 % rule forces a dump.
	for round := 0; round < 40 && r.g.Stats().Dumps == 0; round++ {
		for i := 0; i < 10; i++ {
			r.put(t, "kv", fmt.Sprintf("k%02d", i), fmt.Sprintf("round-%d", round))
		}
		if !r.g.Flush(5 * time.Second) {
			t.Fatal("flush timed out")
		}
		if err := r.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !r.g.SyncCheckpoints(5 * time.Second) {
			t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
		}
	}
	s := r.g.Stats()
	if s.Dumps == 0 {
		t.Fatalf("150%% rule never produced a dump (stats %+v)", s)
	}
	// The dump is counted when its parts are durable, before its GC sweep
	// runs on the checkpoint worker; SyncCheckpoints is the deterministic
	// barrier for "uploaded AND swept", so no polling is needed.
	if !r.g.SyncCheckpoints(5 * time.Second) {
		t.Fatal("checkpoint queue did not settle")
	}
	if r.g.Stats().DBObjectsDeleted == 0 {
		t.Fatal("dump did not garbage-collect older DB objects")
	}
	// And the database remains recoverable afterwards.
	db2 := r.disasterRecover(t)
	for i := 0; i < 10; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost after dump: %v", i, err)
		}
	}
}

func TestRebootResumesProtection(t *testing.T) {
	store := cloud.NewMemStore()
	r := newRig(t, store, fastParams(),
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "before", "stop")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	// Safe stop.
	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot on the same local files + same cloud.
	g2, err := core.New(r.localFS, store, dbevent.NewPGProcessor(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Reboot(context.Background()); err != nil {
		t.Fatalf("Reboot: %v", err)
	}
	defer g2.Close()
	db2, err := minidb.Open(g2.FS(), pgengine.NewWithSizes(1024, 16*1024, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Update(func(tx *minidb.Txn) error {
		return tx.Put("kv", []byte("after"), []byte("reboot"))
	}); err != nil {
		t.Fatal(err)
	}
	if !g2.Flush(5 * time.Second) {
		t.Fatal("flush after reboot")
	}

	// Disaster after reboot: both writes must be recoverable.
	freshFS := vfs.NewMemFS()
	g3, err := core.New(freshFS, store, dbevent.NewPGProcessor(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g3.Close()
	db3, err := minidb.Open(g3.FS(), pgengine.NewWithSizes(1024, 16*1024, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"before", "after"} {
		if _, err := db3.Get("kv", []byte(key)); err != nil {
			t.Fatalf("%s lost across reboot: %v", key, err)
		}
	}
}

func TestRecoverEmptyCloudFails(t *testing.T) {
	g, err := core.New(vfs.NewMemFS(), cloud.NewMemStore(), dbevent.NewPGProcessor(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Recover(context.Background()); !errors.Is(err, core.ErrNoDump) {
		t.Fatalf("Recover on empty cloud = %v, want ErrNoDump", err)
	}
}

func TestCompressionAndEncryptionEndToEnd(t *testing.T) {
	for _, cfg := range []struct {
		name     string
		compress bool
		encrypt  bool
	}{
		{"comp", true, false},
		{"crypt", false, true},
		{"c+c", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			p := fastParams()
			p.Compress = cfg.compress
			p.Encrypt = cfg.encrypt
			if cfg.encrypt {
				p.Password = "correct horse battery staple"
			}
			r := pgRig(t, p)
			if err := r.db.CreateTable("kv", 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				r.put(t, "kv", fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
			}
			if !r.g.Flush(5 * time.Second) {
				t.Fatal("flush")
			}
			db2 := r.disasterRecover(t)
			for i := 0; i < 30; i++ {
				v, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i)))
				if err != nil || string(v) != fmt.Sprintf("v%02d", i) {
					t.Fatalf("k%02d = %q, %v", i, v, err)
				}
			}
			if cfg.compress {
				s := r.g.Stats()
				if s.WALBytesUploaded >= s.WALBytesRaw {
					t.Fatalf("compression did not shrink uploads: %d ≥ %d",
						s.WALBytesUploaded, s.WALBytesRaw)
				}
			}
		})
	}
}

func TestWrongPasswordCannotRecover(t *testing.T) {
	p := fastParams()
	p.Encrypt = true
	p.Password = "right"
	r := pgRig(t, p)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "k", "v")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	bad := p
	bad.Password = "wrong"
	g2, err := core.New(vfs.NewMemFS(), r.store, dbevent.NewPGProcessor(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err == nil {
		t.Fatal("recovery with the wrong password succeeded")
	}
}

func TestSafetyBoundsDataLoss(t *testing.T) {
	// With uploads stalled, commit N updates (< S so nothing blocks),
	// then a disaster strikes: recovery must restore the pre-stall state
	// and lose at most S updates — here, exactly the stalled tail.
	store := newBlockableStore()
	params := fastParams()
	params.Batch = 2
	params.Safety = 16
	r := newRig(t, store, params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "durable", "yes")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}

	release := store.block()  // cloud outage starts
	for i := 0; i < 10; i++ { // 10 < S: commits proceed locally
		r.put(t, "kv", fmt.Sprintf("lost-%02d", i), "maybe")
	}
	close(release) // irrelevant: disaster already "happened"; recover from what's durable

	db2 := r.disasterRecover(t)
	if _, err := db2.Get("kv", []byte("durable")); err != nil {
		t.Fatalf("durable key lost: %v", err)
	}
	// The stalled updates may or may not have made it (the release let
	// some through); the invariant is bounded loss, not exact content:
	lost := 0
	for i := 0; i < 10; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("lost-%02d", i))); err != nil {
			lost++
		}
	}
	if lost > params.Safety {
		t.Fatalf("lost %d updates, Safety promised ≤ %d", lost, params.Safety)
	}
}

func TestBackupVerification(t *testing.T) {
	r := pgRig(t, fastParams())
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "v")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}

	gv, err := core.New(vfs.NewMemFS(), r.store, dbevent.NewPGProcessor(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	target := vfs.NewMemFS()
	res, err := gv.Verify(context.Background(), target,
		func(fsys vfs.FS) error { // step 2: DBMS restart
			db, err := minidb.Open(fsys, pgengine.NewWithSizes(1024, 16*1024, 1024), minidb.Options{})
			if err != nil {
				return err
			}
			return db.Close()
		},
		func(fsys vfs.FS) error { // step 3: probe queries
			db, err := minidb.Open(fsys, pgengine.NewWithSizes(1024, 16*1024, 1024), minidb.Options{})
			if err != nil {
				return err
			}
			if _, err := db.Get("kv", []byte("k00")); err != nil {
				return err
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.ObjectsChecked == 0 || !res.RestartOK || !res.ProbeOK {
		t.Fatalf("VerifyResult = %+v", res)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	r := pgRig(t, fastParams())
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "k", "v")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	// Corrupt one object in the cloud.
	ctx := context.Background()
	infos, err := r.store.List(ctx, "WAL/")
	if err != nil || len(infos) == 0 {
		t.Fatalf("list: %v (%d objects)", err, len(infos))
	}
	data, err := r.store.Get(ctx, infos[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := r.store.Put(ctx, infos[0].Name, data); err != nil {
		t.Fatal(err)
	}

	gv, err := core.New(vfs.NewMemFS(), r.store, dbevent.NewPGProcessor(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gv.Verify(ctx, vfs.NewMemFS(), nil, nil); err == nil {
		t.Fatal("verification accepted a tampered object")
	}
}

func TestMultiCloudSurvivesProviderOutage(t *testing.T) {
	s1, s2, s3 := cloud.NewMemStore(), cloud.NewMemStore(), cloud.NewMemStore()
	dead := &failingStore{} // provider 3 is down from the start
	repl, err := core.NewReplicatedStore(s1, s2, dead)
	if err != nil {
		t.Fatal(err)
	}
	_ = s3
	r := newRig(t, repl, fastParams(),
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "v")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush with one dead provider")
	}
	db2 := r.disasterRecover(t)
	for i := 0; i < 20; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost: %v", i, err)
		}
	}
}

// blockableStore stalls every Put while the gate is armed.
type blockableStore struct {
	cloud.ObjectStore

	mu   chan struct{} // nil when open
	gate chan struct{}
}

func newBlockableStore() *blockableStore {
	return &blockableStore{ObjectStore: cloud.NewMemStore()}
}

func (b *blockableStore) block() chan struct{} {
	b.gate = make(chan struct{})
	return b.gate
}

func (b *blockableStore) Put(ctx context.Context, name string, data []byte) error {
	if g := b.gate; g != nil {
		select {
		case <-g:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return b.ObjectStore.Put(ctx, name, data)
}

type failingStore struct{}

var _ cloud.ObjectStore = failingStore{}

func (failingStore) Put(context.Context, string, []byte) error { return errors.New("provider down") }
func (failingStore) Get(context.Context, string) ([]byte, error) {
	return nil, errors.New("provider down")
}
func (failingStore) List(context.Context, string) ([]cloud.ObjectInfo, error) {
	return nil, errors.New("provider down")
}
func (failingStore) Delete(context.Context, string) error { return errors.New("provider down") }

func TestStatsAccounting(t *testing.T) {
	r := pgRig(t, fastParams())
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "v")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	s := r.g.Stats()
	if s.UpdatesObserved < 16 {
		t.Fatalf("UpdatesObserved = %d, want ≥ 16", s.UpdatesObserved)
	}
	if s.WALObjectsUploaded == 0 || s.WALBytesUploaded == 0 {
		t.Fatalf("upload stats empty: %+v", s)
	}
	if s.Batches == 0 {
		t.Fatal("no batches recorded")
	}
	if r.g.PendingUpdates() != 0 {
		t.Fatalf("PendingUpdates = %d after flush", r.g.PendingUpdates())
	}
}
