package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/cloud/s3http"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/innoengine"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
	"github.com/ginja-dr/ginja/internal/workload/tpcc"
)

// TestFullStackOverHTTP runs protect → disaster → recover with the cloud
// behind a real HTTP socket (the s3http server), like the paper's
// prototype talking REST to S3.
func TestFullStackOverHTTP(t *testing.T) {
	backend := cloud.NewMemStore()
	srv := httptest.NewServer(s3http.NewHandler(backend))
	defer srv.Close()
	store := s3http.NewClient(srv.URL, srv.Client())

	r := newRig(t, store, fastParams(),
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "v")
	}
	if !r.g.Flush(10 * time.Second) {
		t.Fatal("flush over HTTP timed out")
	}
	db2 := r.disasterRecover(t)
	for i := 0; i < 40; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost over HTTP stack: %v", i, err)
		}
	}
}

// TestFullStackOnRealDisk runs the whole loop on OSFS + DiskStore — what
// cmd/ginja does.
func TestFullStackOnRealDisk(t *testing.T) {
	store, err := cloud.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	localFS, err := vfs.NewOSFS(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.New(localFS, store, dbevent.NewPGProcessor(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	engine := pgengine.NewWithSizes(1024, 16*1024, 1024)
	db, err := minidb.Open(g.FS(), engine, minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := db.Update(func(tx *minidb.Txn) error {
			return tx.Put("kv", []byte(fmt.Sprintf("k%02d", i)), []byte("disk"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Flush(10 * time.Second) {
		t.Fatal("flush")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Disaster: recover into a different directory.
	restoreFS, err := vfs.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := core.New(restoreFS, store, dbevent.NewPGProcessor(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	db2, err := minidb.Open(g2.FS(), engine, minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost on disk stack: %v", i, err)
		}
	}
}

// TestFullStackWithTransientCloudFailures injects a 20 % failure rate:
// the retry logic must absorb every failure with no data loss. The store
// and Ginja share one virtual clock, and cloudsim draws each failure from
// (seed, op, name, instant), so which operations fail — and the retry
// count — is a function of the seed alone.
func TestFullStackWithTransientCloudFailures(t *testing.T) {
	clk := simclock.NewSim()
	flaky := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{
		FailureRate: 0.2,
		Seed:        99,
		Clock:       clk,
	})
	params := fastParams()
	params.Clock = clk
	params.UploadRetries = 0 // retry forever
	reads := &readFailCounter{ObjectStore: flaky}
	r := newRig(t, reads, params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "v")
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !r.g.Flush(20 * time.Second) {
		t.Fatal("flush did not survive the failure rate")
	}
	if !r.g.SyncCheckpoints(20 * time.Second) {
		t.Fatal("checkpoint upload did not survive the failure rate")
	}
	if got := r.g.Stats().UploadRetries; got != 7 {
		t.Fatalf("%d commit-path retries, want exactly 7 for seed 99", got)
	}
	if err := r.g.Err(); err != nil {
		t.Fatalf("pipeline error: %v", err)
	}
	// A cold recovery (LIST and GETs) reads through the same 20 % failure
	// rate and must still rebuild every row.
	before := reads.failed.Load()
	db2 := r.disasterRecover(t)
	if reads.failed.Load() == before {
		t.Fatal("no read failed during recovery: the test no longer exercises read retries")
	}
	for i := 0; i < 60; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost despite retries: %v", i, err)
		}
	}
}

// readFailCounter counts the Gets and Lists its store failed with an
// injected transient error.
type readFailCounter struct {
	cloud.ObjectStore
	failed atomic.Int64
}

func (s *readFailCounter) count(err error) error {
	if errors.Is(err, cloudsim.ErrInjected) {
		s.failed.Add(1)
	}
	return err
}

func (s *readFailCounter) Get(ctx context.Context, name string) ([]byte, error) {
	b, err := s.ObjectStore.Get(ctx, name)
	return b, s.count(err)
}

func (s *readFailCounter) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	infos, err := s.ObjectStore.List(ctx, prefix)
	return infos, s.count(err)
}

// TestTPCCCrashConsistencyInvariant runs a live TPC-C workload under
// Ginja with periodic checkpoints, crashes mid-flight WITHOUT flushing,
// recovers, and checks the transactional invariant: for every district,
// all orders below the recovered next-order-id exist with all their
// lines. Bounded data loss may rewind the counter, but can never tear a
// transaction apart.
func TestTPCCCrashConsistencyInvariant(t *testing.T) {
	store := cloud.NewMemStore()
	params := fastParams()
	params.Batch = 8
	params.Safety = 128
	r := newRig(t, store, params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 64*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })

	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 5, Items: 20, Terminals: 2, Seed: 5}
	if err := tpcc.Load(r.db, cfg); err != nil {
		t.Fatal(err)
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !r.g.SyncCheckpoints(5 * time.Second) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}
	if _, err := tpcc.NewDriver(r.db, cfg).Run(context.Background(), 400*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// CRASH: no flush, no checkpoint — whatever is in flight is lost.
	db2 := r.disasterRecover(t)

	for d := 1; d <= cfg.Districts; d++ {
		raw, err := db2.Get(tpcc.TableDistrict, []byte(fmt.Sprintf("d:%04d:%02d", 1, d)))
		if err != nil {
			t.Fatalf("district %d lost: %v", d, err)
		}
		var dist struct {
			NextOID int `json:"next_o_id"`
		}
		if err := json.Unmarshal(raw, &dist); err != nil {
			t.Fatal(err)
		}
		for o := 1; o < dist.NextOID; o++ {
			rawOrder, err := db2.Get(tpcc.TableOrders, []byte(fmt.Sprintf("o:%04d:%02d:%08d", 1, d, o)))
			if err != nil {
				t.Fatalf("district %d: order %d < NextOID %d missing after recovery — torn transaction",
					d, o, dist.NextOID)
			}
			var order struct {
				LineCount int `json:"line_count"`
			}
			if err := json.Unmarshal(rawOrder, &order); err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= order.LineCount; n++ {
				key := fmt.Sprintf("ol:%04d:%02d:%08d:%02d", 1, d, o, n)
				if _, err := db2.Get(tpcc.TableOrderLine, []byte(key)); err != nil {
					t.Fatalf("order %d/%d missing line %d — torn transaction", d, o, n)
				}
			}
		}
	}
}

// TestRepeatedDisasterCycles survives several protect → crash → recover
// rounds, each resuming replication on the recovered state.
func TestRepeatedDisasterCycles(t *testing.T) {
	store := cloud.NewMemStore()
	params := fastParams()
	engineFn := func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) }
	procFn := func() dbevent.Processor { return dbevent.NewPGProcessor() }

	r := newRig(t, store, params, engineFn, procFn)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}

	g, db := r.g, r.db
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 15; i++ {
			key := fmt.Sprintf("c%d-k%02d", cycle, i)
			if err := db.Update(func(tx *minidb.Txn) error {
				return tx.Put("kv", []byte(key), []byte(key))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !g.Flush(10 * time.Second) {
			t.Fatalf("cycle %d: flush", cycle)
		}
		// Disaster + recovery on a fresh machine.
		freshFS := vfs.NewMemFS()
		g2, err := core.New(freshFS, store, procFn(), params)
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.Recover(context.Background()); err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		t.Cleanup(func() { g2.Close() })
		db2, err := minidb.Open(g2.FS(), engineFn(), minidb.Options{})
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		// Everything from every previous cycle must still be there.
		for c := 0; c <= cycle; c++ {
			for i := 0; i < 15; i++ {
				key := fmt.Sprintf("c%d-k%02d", c, i)
				if _, err := db2.Get("kv", []byte(key)); err != nil {
					t.Fatalf("cycle %d: %s lost: %v", cycle, key, err)
				}
			}
		}
		g, db = g2, db2
	}
}

// TestInterruptedRecoveryIsRepeatable: a recovery cancelled mid-restore
// leaves partial files behind; a second, complete Recover over the same
// directory must still produce a correct database (restores are
// idempotent overwrites).
func TestInterruptedRecoveryIsRepeatable(t *testing.T) {
	r := pgRig(t, fastParams())
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "v")
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	if !r.g.SyncCheckpoints(5 * time.Second) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}

	freshFS := vfs.NewMemFS()
	// First attempt: cancel almost immediately so the restore aborts
	// partway (or instantly — both are valid interruption points).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gBad, err := core.New(freshFS, r.store, r.proc(), r.g.Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := gBad.Recover(ctx); err == nil {
		// A cancelled context should fail the LIST or a GET; if the
		// whole restore raced through, that is fine too.
		gBad.Close()
	}

	// Second attempt on the SAME directory with a live context.
	g2, err := core.New(freshFS, r.store, r.proc(), r.g.Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer g2.Close()
	db2, err := minidb.Open(g2.FS(), r.engine(), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost after repeated recovery: %v", i, err)
		}
	}
}

// TestInnoCircularWrapUnderGinja drives an InnoDB-personality database
// with a tiny circular redo log so the log wraps many times (forcing
// checkpoints), all while Ginja replicates and garbage-collects. Crash
// and recover at the end: the full history must survive even though the
// local log reused its space repeatedly.
func TestInnoCircularWrapUnderGinja(t *testing.T) {
	store := cloud.NewMemStore()
	params := fastParams()
	engineFn := func() minidb.Engine {
		return innoengine.NewWithSizes(512, 2048+512*16, 1024, 2) // 16 KiB capacity
	}
	r := newRig(t, store, params, engineFn,
		func() dbevent.Processor { return dbevent.NewInnoProcessor() })
	if err := r.db.CreateTable("kv", 8); err != nil {
		t.Fatal(err)
	}
	const n = 300 // enough to wrap the circular log several times
	for i := 0; i < n; i++ {
		r.put(t, "kv", fmt.Sprintf("k%03d", i), fmt.Sprintf("value-%03d", i))
	}
	if r.db.Stats().Checkpoints == 0 {
		t.Fatal("circular log never forced a checkpoint")
	}
	if !r.g.Flush(10 * time.Second) {
		t.Fatal("flush")
	}
	if !r.g.SyncCheckpoints(5 * time.Second) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}

	db2 := r.disasterRecover(t)
	for i := 0; i < n; i++ {
		v, err := db2.Get("kv", []byte(fmt.Sprintf("k%03d", i)))
		if err != nil {
			t.Fatalf("k%03d lost across circular wrap: %v", i, err)
		}
		if string(v) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("k%03d = %q", i, v)
		}
	}
	// GC must have kept the cloud bounded: far fewer WAL objects than
	// commits.
	if wal := len(r.g.View().WALObjects()); wal > n/2 {
		t.Fatalf("cloud holds %d WAL objects after GC for %d commits", wal, n)
	}
}
