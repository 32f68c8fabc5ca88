package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// partOutageStore lets a test cut the provider off mid multi-part DB
// upload: once armed, it allows a fixed number of DB part PUTs through
// and fails every one after that, so some parts of one object land and
// the rest never do.
type partOutageStore struct {
	cloud.ObjectStore
	armed   atomic.Bool
	allowed atomic.Int64 // remaining DB part PUTs to let through once armed
	landed  atomic.Int64 // DB part PUTs that succeeded while armed
}

var errPartOutage = errors.New("test: provider outage mid part upload")

func (s *partOutageStore) Put(ctx context.Context, name string, data []byte) error {
	if s.armed.Load() && strings.HasPrefix(name, "DB/") &&
		(strings.Contains(name, ".p") || strings.Contains(name, ".s")) {
		if s.allowed.Add(-1) < 0 {
			return errPartOutage
		}
		if err := s.ObjectStore.Put(ctx, name, data); err != nil {
			return err
		}
		s.landed.Add(1)
		return nil
	}
	return s.ObjectStore.Put(ctx, name, data)
}

// TestConcurrentPartUploadOutageMidDump drives an outage into the middle
// of a parallel multi-part dump upload: some parts land, some never do.
// The primary's view must not contain the half-uploaded object (AddDB
// only happens after every part is durable), and a fresh machine must
// still recover everything the last Flush guaranteed — the orphan parts
// in the bucket are pruned from the recovery listing, not trusted.
func TestConcurrentPartUploadOutageMidDump(t *testing.T) {
	store := &partOutageStore{ObjectStore: cloud.NewMemStore()}
	params := fastParams()
	params.MaxObjectSize = 2048 // dumps split into several parts
	params.DumpThreshold = 1.0  // first checkpoint becomes a dump
	params.CheckpointUploaders = 4
	params.UploadRetries = 2 // the outage must be fatal, not ridden out

	r := newRig(t, store, params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })

	if err := r.db.CreateTable("accounts", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.put(t, "accounts", fmt.Sprintf("acct-%03d", i), fmt.Sprintf("balance-%d", i*100))
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}

	// Outage strikes: exactly one DB part PUT will succeed, the rest fail.
	store.allowed.Store(1)
	store.armed.Store(true)
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A failed checkpointer's queue never drains: the sync returns false at
	// once.
	if r.g.SyncCheckpoints(10*time.Second) || r.g.Err() == nil {
		t.Fatal("checkpointer never reported the failed part upload")
	}
	if store.landed.Load() == 0 {
		t.Fatal("no part landed before the outage; test exercised nothing")
	}

	// The view must not know the half-uploaded object: every DB object it
	// reports must predate the outage (the boot dump at ts 0).
	for _, d := range r.g.View().DBObjects() {
		if d.Ts != 0 {
			t.Fatalf("view contains DB object %+v uploaded during the outage", d)
		}
	}
	// ... but its orphan parts are really in the bucket.
	infos, err := store.List(context.Background(), "DB/")
	if err != nil {
		t.Fatal(err)
	}
	orphans := 0
	for _, info := range infos {
		n, err := core.ParseDBObjectName(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if n.Ts != 0 && n.Part >= 0 {
			orphans++
		}
	}
	if int64(orphans) != store.landed.Load() {
		t.Fatalf("bucket holds %d orphan parts, %d landed", orphans, store.landed.Load())
	}

	// Disaster recovery on a fresh machine: the orphan parts must be
	// ignored and every flushed row restored.
	store.armed.Store(false)
	db2 := r.disasterRecover(t)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("acct-%03d", i)
		v, err := db2.Get("accounts", []byte(key))
		if err != nil {
			t.Fatalf("recovered Get(%s): %v", key, err)
		}
		if want := fmt.Sprintf("balance-%d", i*100); string(v) != want {
			t.Fatalf("recovered %s = %q, want %q", key, v, want)
		}
	}
}

// TestOrphanPartsSweptByNextDumpGC takes the aftermath of an outage mid
// part upload — orphan parts stranded in the bucket — through disaster
// recovery and verifies the next dump's garbage collection deletes them:
// LoadFromList records the orphans (without surfacing them to recovery)
// and collectOldDBObjects sweeps them, so crash-window garbage does not
// leak forever and the orphaned (ts, gen) slot is never handed out again
// while its parts are still in the bucket.
func TestOrphanPartsSweptByNextDumpGC(t *testing.T) {
	store := &partOutageStore{ObjectStore: cloud.NewMemStore()}
	params := fastParams()
	params.MaxObjectSize = 2048
	params.DumpThreshold = 1.0 // every checkpoint becomes a dump
	params.CheckpointUploaders = 4
	params.UploadRetries = 2

	r := newRig(t, store, params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("accounts", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.put(t, "accounts", fmt.Sprintf("acct-%03d", i), fmt.Sprintf("balance-%d", i*100))
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	store.allowed.Store(1)
	store.armed.Store(true)
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A failed checkpointer's queue never drains: the sync returns false at
	// once.
	if r.g.SyncCheckpoints(10*time.Second) || r.g.Err() == nil {
		t.Fatal("checkpointer never reported the failed part upload")
	}
	store.armed.Store(false)

	// Recover on a fresh machine, keeping the Ginja handle: its view must
	// have recorded the stranded parts as orphans.
	freshFS := vfs.NewMemFS()
	g2, err := core.New(freshFS, store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(func() { g2.Close() })
	orphans := g2.View().OrphanParts()
	if len(orphans) == 0 {
		t.Fatal("recovery recorded no orphans; test exercised nothing")
	}
	db2, err := minidb.Open(g2.FS(), pgengine.NewWithSizes(1024, 16*1024, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Drive checkpoints until the accumulated cloud DB size crosses the
	// dump threshold: that dump's GC must sweep the recorded orphans. Each
	// round dirties every row so the incremental checkpoints carry real
	// volume, and a true sync means every object queued so far landed and
	// was swept.
	for round := 0; g2.Stats().Dumps == 0; round++ {
		if round == 100 {
			t.Fatalf("no dump after %d rounds", round)
		}
		for i := 0; i < 50; i++ {
			if err := db2.Update(func(tx *minidb.Txn) error {
				return tx.Put("accounts", []byte(fmt.Sprintf("acct-%03d", i)),
					[]byte(fmt.Sprintf("balance-%d-%d", i*100, round)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !g2.SyncCheckpoints(10 * time.Second) {
			t.Fatalf("replication failed after recovery: %v", g2.Err())
		}
	}
	infos, err := store.List(context.Background(), "DB/")
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[string]bool, len(infos))
	for _, info := range infos {
		present[info.Name] = true
	}
	for _, o := range orphans {
		if present[o.Name] {
			t.Errorf("orphan part %s still in the bucket after the dump's sweep", o.Name)
		}
	}
	if left := g2.View().OrphanParts(); len(left) != 0 {
		t.Fatalf("the view still records %d orphans after the dump's sweep", len(left))
	}
}
