package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
)

func threeProviders() (*ReplicatedStore, *cloud.MemStore, *cloud.MemStore, *cloudsim.Store) {
	a := cloud.NewMemStore()
	b := cloud.NewMemStore()
	cBack := cloud.NewMemStore()
	c := cloudsim.New(cBack, cloudsim.Options{})
	repl, err := NewReplicatedStore(a, b, c)
	if err != nil {
		panic(err)
	}
	return repl, a, b, c
}

func TestReplicatedStoreNeedsBackends(t *testing.T) {
	if _, err := NewReplicatedStore(); err == nil {
		t.Fatal("empty replicated store accepted")
	}
}

func TestReplicatedPutThenGet(t *testing.T) {
	repl, _, _, _ := threeProviders()
	ctx := context.Background()
	if err := repl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := repl.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	infos, err := repl.List(ctx, "")
	if err != nil || len(infos) != 1 {
		t.Fatalf("List = %v, %v", infos, err)
	}
}

func TestReplicatedPutFailsWithoutMajority(t *testing.T) {
	a := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	b := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	c := cloud.NewMemStore()
	repl, err := NewReplicatedStore(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	a.StartOutage()
	b.StartOutage()
	if err := repl.Put(context.Background(), "k", []byte("v")); err == nil {
		t.Fatal("Put succeeded with 2/3 providers down")
	}
}

func TestReplicatedDeleteBestEffort(t *testing.T) {
	repl, a, _, c := threeProviders()
	ctx := context.Background()
	if err := repl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.StartOutage()
	if err := repl.Delete(ctx, "k"); err != nil {
		t.Fatalf("Delete with one provider down: %v", err)
	}
	if a.Len() != 0 {
		t.Fatal("provider A still holds the object")
	}
}

// refusedPuts reports every PUT its provider refused.
type refusedPuts struct {
	cloud.ObjectStore
	refused chan string
}

func (p *refusedPuts) Put(ctx context.Context, name string, data []byte) error {
	err := p.ObjectStore.Put(ctx, name, data)
	if err != nil {
		p.refused <- name
	}
	return err
}

func TestRepairCopiesToLaggingProvider(t *testing.T) {
	a, b := cloud.NewMemStore(), cloud.NewMemStore()
	c := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	lagging := &refusedPuts{ObjectStore: c, refused: make(chan string, 2)}
	repl, err := NewReplicatedStore(a, b, lagging)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Provider C misses two writes during an outage.
	c.StartOutage()
	if err := repl.Put(ctx, "WAL/1_seg_0", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := repl.Put(ctx, "WAL/2_seg_0", []byte("two")); err != nil {
		t.Fatal(err)
	}
	// Put returns on quorum (paper §6), possibly before C's goroutine has
	// reached the outage: the outage must outlast both of C's attempts.
	for i := 0; i < 2; i++ {
		select {
		case <-lagging.refused:
		case <-time.After(10 * time.Second):
			t.Fatal("provider C never saw the PUT it was to miss")
		}
	}
	c.EndOutage()

	report, err := repl.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Copied != 2 {
		t.Fatalf("Copied = %d, want 2", report.Copied)
	}
	// All three providers now hold both objects.
	for name, s := range map[string]cloud.ObjectStore{"a": a, "b": b, "c": c} {
		for _, key := range []string{"WAL/1_seg_0", "WAL/2_seg_0"} {
			if _, err := s.Get(ctx, key); err != nil {
				t.Fatalf("provider %s missing %s after repair: %v", name, key, err)
			}
		}
	}
}

func TestRepairRemovesMinorityGarbage(t *testing.T) {
	repl, a, b, c := threeProviders()
	ctx := context.Background()
	if err := repl.Put(ctx, "keep", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A GC round deleted "old" everywhere except provider C (it was down
	// for the delete): simulate by writing it only to C's backing store.
	if err := c.Put(ctx, "old", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	report, err := repl.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Removed != 1 {
		t.Fatalf("Removed = %d, want 1", report.Removed)
	}
	if _, err := c.Get(ctx, "old"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("garbage survived repair: %v", err)
	}
	// The quorum object is untouched.
	for _, s := range []cloud.ObjectStore{a, b, c} {
		if _, err := s.Get(ctx, "keep"); err != nil {
			t.Fatalf("repair damaged a healthy object: %v", err)
		}
	}
}

func TestRepairSkipsGarbageJudgementWhenProviderDown(t *testing.T) {
	repl, _, _, c := threeProviders()
	ctx := context.Background()
	if err := repl.Put(ctx, "keep", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.StartOutage()
	report, err := repl.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Unreachable != 1 {
		t.Fatalf("Unreachable = %d, want 1", report.Unreachable)
	}
}

// TestReplicatedListMergesAfterOutage is the divergence bug: a replica
// that missed quorum writes during its outage answers the next LIST
// first. A first-responder listing would silently drop the missed
// objects; the health-aware merge must union them back in, and a Repair
// pass must restore the fast path.
func TestReplicatedListMergesAfterOutage(t *testing.T) {
	// The flaky replica is FIRST, so a naive first-responder List would
	// trust its stale listing.
	stale := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	lagging := &refusedPuts{ObjectStore: stale, refused: make(chan string, 1)}
	b := cloud.NewMemStore()
	c := cloud.NewMemStore()
	repl, err := NewReplicatedStore(lagging, b, c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := repl.Put(ctx, "WAL/1_seg_0", []byte("one")); err != nil {
		t.Fatal(err)
	}
	stale.StartOutage()
	if err := repl.Put(ctx, "WAL/2_seg_0", []byte("two")); err != nil {
		t.Fatal(err)
	}
	// Put returns on quorum, possibly before the stale replica's goroutine
	// has reached the outage: the outage must outlast that attempt.
	select {
	case <-lagging.refused:
	case <-time.After(10 * time.Second):
		t.Fatal("the stale replica never saw the PUT it was to miss")
	}
	stale.EndOutage()
	// Put returns on quorum; the failed replica's goroutine marks it
	// unhealthy in the background, so poll rather than assert instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := repl.Healthy()
		if !h[0] && h[1] && h[2] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health after outage = %v, want [false true true]", h)
		}
		time.Sleep(time.Millisecond)
	}
	infos, err := repl.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(infos))
	for _, info := range infos {
		names[info.Name] = true
	}
	if !names["WAL/1_seg_0"] || !names["WAL/2_seg_0"] {
		t.Fatalf("merged listing dropped a quorum object: %v", names)
	}
	report, err := repl.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Copied == 0 {
		t.Fatal("repair copied nothing to the lagging replica")
	}
	if h := repl.Healthy(); !h[0] || !h[1] || !h[2] {
		t.Fatalf("health after repair = %v, want all true", h)
	}
}

// TestReplicatedRecoveryAfterDivergentOutage drives the whole stack: a
// 2-of-3 write quorum survives one replica's outage across a checkpoint,
// and disaster recovery through the replicated store — with the stale
// replica answering LISTs first — still reaches the flushed frontier.
func TestReplicatedRecoveryAfterDivergentOutage(t *testing.T) {
	stale := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	repl, err := NewReplicatedStore(stale, cloud.NewMemStore(), cloud.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	params := pitrParams()
	params.UploadRetries = 2
	g, err := New(vfs.NewMemFS(), repl, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	db, err := minidb.Open(g.FS(), pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	put := func(k, v string) {
		t.Helper()
		if err := db.Update(func(tx *minidb.Txn) error {
			return tx.Put("kv", []byte(k), []byte(v))
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("pre", "outage")
	if !g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	// Replica 0 goes dark across commits AND a checkpoint: everything in
	// this window exists only on the 2-of-3 quorum.
	stale.StartOutage()
	for i := 0; i < 8; i++ {
		put(fmt.Sprintf("during-%d", i), "quorum-only")
	}
	if !g.Flush(5 * time.Second) {
		t.Fatal("flush during outage")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !g.SyncCheckpoints(5 * time.Second) {
		t.Fatal("settle")
	}
	stale.EndOutage()
	if err := g.Err(); err != nil {
		t.Fatalf("replication failed despite quorum: %v", err)
	}

	// Disaster: recover on a fresh machine through the same replicated
	// store. The stale replica is reachable again and answers first.
	target := vfs.NewMemFS()
	gr, err := New(target, repl, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Recover(context.Background()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer gr.Close()
	db2, err := minidb.Open(gr.FS(), pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Get("kv", []byte("pre")); err != nil {
		t.Fatalf("pre-outage key lost: %v", err)
	}
	for i := 0; i < 8; i++ {
		v, err := db2.Get("kv", []byte(fmt.Sprintf("during-%d", i)))
		if err != nil || string(v) != "quorum-only" {
			t.Fatalf("during-%d: %q, %v — stale first responder leaked into recovery", i, v, err)
		}
	}
}

// countingStore counts LIST calls, to observe which replicas a
// ReplicatedStore.List actually consulted.
type countingStore struct {
	cloud.ObjectStore
	lists atomic.Int64
}

func (s *countingStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	s.lists.Add(1)
	return s.ObjectStore.List(ctx, prefix)
}

// TestReplicatedListMergesOnFreshProcess is the boot-time half of the
// divergence bug: health flags live in memory, so a freshly started
// process (exactly the disaster-recovery case) sees every replica as
// healthy — even if replica 0 missed quorum writes during an outage
// observed only by the previous, now-dead process. A fresh store must
// merge listings until a Repair pass has verified full redundancy in
// this process; only then may a single first responder be trusted.
func TestReplicatedListMergesOnFreshProcess(t *testing.T) {
	ctx := context.Background()
	stale := &countingStore{ObjectStore: cloud.NewMemStore()}
	b := &countingStore{ObjectStore: cloud.NewMemStore()}
	c := &countingStore{ObjectStore: cloud.NewMemStore()}
	// A previous process wrote "WAL/1" to all three replicas, then
	// "WAL/2" to only the 2-of-3 quorum while replica 0 was down. That
	// process — and its health flags — are gone.
	for _, s := range []cloud.ObjectStore{stale, b, c} {
		if err := s.Put(ctx, "WAL/1_seg_0", []byte("one")); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []cloud.ObjectStore{b, c} {
		if err := s.Put(ctx, "WAL/2_seg_0", []byte("two")); err != nil {
			t.Fatal(err)
		}
	}

	repl, err := NewReplicatedStore(stale, b, c)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := repl.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(infos))
	for _, info := range infos {
		names[info.Name] = true
	}
	if !names["WAL/1_seg_0"] || !names["WAL/2_seg_0"] {
		t.Fatalf("fresh-process listing trusted the stale first responder: %v", names)
	}
	if b.lists.Load() == 0 || c.lists.Load() == 0 {
		t.Fatal("fresh-process List did not fan out to every replica")
	}

	// A full Repair verifies redundancy; from then on the single-LIST
	// fast path is allowed again.
	if _, err := repl.Repair(ctx); err != nil {
		t.Fatal(err)
	}
	bBefore, cBefore := b.lists.Load(), c.lists.Load()
	if _, err := repl.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if b.lists.Load() != bBefore || c.lists.Load() != cBefore {
		t.Fatal("verified healthy store still fans every LIST out")
	}
}

func TestRepairAllProvidersDown(t *testing.T) {
	a := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	repl, err := NewReplicatedStore(a)
	if err != nil {
		t.Fatal(err)
	}
	a.StartOutage()
	if _, err := repl.Repair(context.Background()); err == nil {
		t.Fatal("repair succeeded with every provider down")
	}
}
