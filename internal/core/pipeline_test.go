package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// gatedStore blocks selected Puts until released, for deterministic
// pipeline tests, logs every Put name and counts Deletes per name. A
// blocked Put waits through the simclock hand-off helpers on clk (nil: the
// wall clock), so a virtual-time test can hold one while the rest of the
// system runs on; it then releases with simclock.Close. A held ack is the
// same wait after the object is stored.
type gatedStore struct {
	cloud.ObjectStore
	clk simclock.Clock

	mu      sync.Mutex
	blocked map[string]chan struct{} // substring -> release channel
	acks    map[string]chan struct{} // the same, waited on once stored
	held    int                      // Puts that met a gate
	ackErrs []error                  // what each held ack's wait returned
	puts    []string
	deleted map[string]int
}

func newGatedStore() *gatedStore {
	return &gatedStore{ObjectStore: cloud.NewMemStore(), blocked: make(map[string]chan struct{})}
}

// block makes every Put whose name contains substr wait until release.
func (g *gatedStore) block(substr string) chan struct{} {
	ch := make(chan struct{})
	g.mu.Lock()
	g.blocked[substr] = ch
	g.mu.Unlock()
	return ch
}

// holdAck makes every Put whose name contains substr store its object,
// then wait until release before it returns: the object exists, and its
// writer may never learn so.
func (g *gatedStore) holdAck(substr string) chan struct{} {
	ch := make(chan struct{})
	g.mu.Lock()
	if g.acks == nil {
		g.acks = make(map[string]chan struct{})
	}
	g.acks[substr] = ch
	g.mu.Unlock()
	return ch
}

func (g *gatedStore) Put(ctx context.Context, name string, data []byte) error {
	g.mu.Lock()
	g.puts = append(g.puts, name)
	g.mu.Unlock()
	if err := g.wait(ctx, name, false); err != nil {
		return err
	}
	if err := g.ObjectStore.Put(ctx, name, data); err != nil {
		return err
	}
	return g.wait(ctx, name, true)
}

// wait parks until the first gate whose substring name contains opens: a
// block gate, or with ack an ack gate, whose outcome it records.
func (g *gatedStore) wait(ctx context.Context, name string, ack bool) error {
	g.mu.Lock()
	gates := g.blocked
	if ack {
		gates = g.acks
	}
	var gate chan struct{}
	for substr, ch := range gates {
		if strings.Contains(name, substr) {
			gate = ch
			g.held++
			break
		}
	}
	clk := g.clk
	g.mu.Unlock()
	if gate == nil {
		return nil
	}
	if clk == nil {
		clk = simclock.Real()
	}
	_, _, err := simclock.Recv(ctx, clk, gate)
	if ack {
		g.mu.Lock()
		g.ackErrs = append(g.ackErrs, err)
		g.mu.Unlock()
	}
	return err
}

func (g *gatedStore) heldPuts() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.held
}

func (g *gatedStore) Delete(ctx context.Context, name string) error {
	g.mu.Lock()
	if g.deleted == nil {
		g.deleted = make(map[string]int)
	}
	g.deleted[name]++
	g.mu.Unlock()
	return g.ObjectStore.Delete(ctx, name)
}

func testParams(b, s int) Params {
	p := DefaultParams()
	p.Batch = b
	p.Safety = s
	p.BatchTimeout = 50 * time.Millisecond
	p.SafetyTimeout = 10 * time.Second
	p.Uploaders = 3
	return p
}

// plainIO builds the cloud seam over store for pipeline-level tests; their
// params carry no Compress/Encrypt, so its sealer is the plain one.
func plainIO(store cloud.ObjectStore, p Params) *cloudIO {
	io, err := newCloudIO(store, p)
	if err != nil {
		panic(err)
	}
	return io
}

func startPipeline(t *testing.T, store cloud.ObjectStore, p Params) *pipeline {
	t.Helper()
	params, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	pipe := newPipeline(NewCloudView(), plainIO(store, params), params)
	pipe.start(0)
	t.Cleanup(func() { pipe.drainAndStop(time.Second) })
	return pipe
}

func submitN(t *testing.T, pipe *pipeline, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		// Distinct offsets so aggregation does not collapse them.
		if _, err := pipe.submit("pg_xlog/0001", int64(i)*8192, []byte("page")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

func TestPipelineUploadsBatches(t *testing.T) {
	store := cloud.NewMemStore()
	pipe := startPipeline(t, store, testParams(2, 100))
	submitN(t, pipe, 10)
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	infos, err := store.List(context.Background(), "WAL/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("no WAL objects uploaded")
	}
	if got := pipe.stats.batches.Load(); got < 5 {
		t.Fatalf("batches = %d, want ≥ 5 for 10 updates at B=2", got)
	}
}

func TestPipelineAggregationCoalescesSamePage(t *testing.T) {
	// 10 rewrites of the SAME page within one batch must produce a single
	// WAL object (the PUT-cost reduction of §5.3).
	store := cloud.NewMemStore()
	pipe := startPipeline(t, store, testParams(10, 100))
	for i := 0; i < 10; i++ {
		if _, err := pipe.submit("pg_xlog/0001", 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	if got := pipe.stats.walObjects.Load(); got != 1 {
		t.Fatalf("uploaded %d WAL objects, want 1 (aggregated)", got)
	}
}

func TestPipelineBatchTimeoutFlushesPartialBatch(t *testing.T) {
	// B=100 but only 3 updates, and nothing drains: TB alone flushes them.
	store := cloud.NewMemStore()
	p := testParams(100, 1000)
	p.BatchTimeout = 30 * time.Millisecond
	p.Clock = simclock.NewSim()
	pipe := startPipeline(t, store, p)
	submitN(t, pipe, 3)
	p.Clock.Sleep(p.BatchTimeout / 2)
	if got := pipe.stats.walObjects.Load(); got != 0 {
		t.Fatalf("%d objects uploaded before TB", got)
	}
	p.Clock.Sleep(p.BatchTimeout)
	if got := pipe.q.size(); got != 0 {
		t.Fatalf("TB did not flush the partial batch: %d updates pending", got)
	}
}

func TestPipelineDrainCutsPartialBatch(t *testing.T) {
	// Flush and Close drain the queue: a partial batch is cut at once, as
	// TB would cut it, instead of waiting out a TB of an hour.
	store := cloud.NewMemStore()
	p := testParams(100, 1000)
	p.BatchTimeout = time.Hour
	p.Clock = simclock.NewSim()
	pipe := startPipeline(t, store, p)
	submitN(t, pipe, 3)
	start := p.Clock.Now()
	if !pipe.q.drain(time.Minute) {
		t.Fatal("drain timed out behind the partial batch")
	}
	if d := p.Clock.Since(start); d != 0 {
		t.Fatalf("drain took %v of virtual time, want none", d)
	}
	if got := pipe.stats.batches.Load(); got != 1 {
		t.Fatalf("%d batches, want the one partial batch", got)
	}
}

func TestPipelineSafetyBlocksCommits(t *testing.T) {
	// Figure 2 semantics: with S pending un-acknowledged updates, the
	// next submit blocks until the cloud acknowledges.
	store := newGatedStore()
	release := store.block("WAL/")
	p := testParams(2, 4)
	pipe := startPipeline(t, store, p)

	for i := 0; i < 4; i++ { // fill to S; none of these may block long
		done := make(chan struct{})
		go func(i int) {
			defer close(done)
			pipe.submit("pg_xlog/0001", int64(i)*8192, []byte("x")) //nolint:errcheck
		}(i)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("submit %d blocked below S", i)
		}
	}

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		pipe.submit("pg_xlog/0001", 5*8192, []byte("x")) //nolint:errcheck
	}()
	select {
	case <-blocked:
		t.Fatal("submit beyond S returned while uploads were blocked")
	case <-time.After(100 * time.Millisecond):
	}

	close(release) // cloud comes back; everything drains and unblocks
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("submit did not unblock after uploads completed")
	}
	if pipe.q.blockedDuration() == 0 {
		t.Fatal("blocked time not recorded")
	}
}

func TestPipelineConsecutiveTsUnlock(t *testing.T) {
	// Three batches upload in parallel; the FIRST one's PUT is stalled.
	// Even when later timestamps are acknowledged, the queue must not
	// release anything (the consecutive-ts rule of §5.3) — otherwise a
	// disaster now would lose acknowledged-but-unrecoverable updates.
	store := newGatedStore()
	release := store.block("WAL/1_") // stall ts=1 only
	p := testParams(1, 100)          // B=1: each update is its own object
	pipe := startPipeline(t, store, p)

	submitN(t, pipe, 3) // ts 1, 2, 3 (none blocks: S=100)

	// Wait until ts 2 and 3 are in the cloud.
	deadline := time.Now().Add(2 * time.Second)
	for store.countUploaded() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.countUploaded() < 2 {
		t.Fatal("later objects never uploaded")
	}
	if got := pipe.q.size(); got != 3 {
		t.Fatalf("queue size = %d, want 3 (nothing released before ts=1 lands)", got)
	}
	close(release)
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain after ts=1 released")
	}
}

func (g *gatedStore) countUploaded() int {
	infos, err := g.ObjectStore.List(context.Background(), "WAL/")
	if err != nil {
		return 0
	}
	return len(infos)
}

func TestPipelineRetriesTransientFailures(t *testing.T) {
	store := &flakyStore{ObjectStore: cloud.NewMemStore(), failFirst: 3}
	p := testParams(1, 10)
	p.RetryBaseDelay = time.Millisecond
	pipe := startPipeline(t, store, p)
	submitN(t, pipe, 1)
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain despite retries")
	}
	if pipe.io.retries.Load() == 0 {
		t.Fatal("no retries recorded")
	}
	if err := pipe.lastErr(); err != nil {
		t.Fatalf("pipeline error = %v", err)
	}
}

func TestPipelineFailsAfterRetryBudget(t *testing.T) {
	store := &flakyStore{ObjectStore: cloud.NewMemStore(), failFirst: 1 << 30}
	p := testParams(1, 2)
	p.UploadRetries = 2
	p.RetryBaseDelay = time.Millisecond
	pipe := startPipeline(t, store, p)
	pipe.submit("pg_xlog/0001", 0, []byte("x")) //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for pipe.lastErr() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pipe.lastErr() == nil {
		t.Fatal("pipeline did not surface the persistent failure")
	}
	// Subsequent submits must return the error instead of hanging.
	if _, err := pipe.submit("pg_xlog/0001", 8192, []byte("x")); err == nil {
		t.Fatal("submit after failure returned nil")
	}
}

type flakyStore struct {
	cloud.ObjectStore

	mu        sync.Mutex
	calls     int
	failFirst int
}

func (f *flakyStore) Put(ctx context.Context, name string, data []byte) error {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.failFirst
	f.mu.Unlock()
	if fail {
		return context.DeadlineExceeded
	}
	return f.ObjectStore.Put(ctx, name, data)
}

func TestPipelineSplitsOversizedObjects(t *testing.T) {
	store := cloud.NewMemStore()
	p := testParams(4, 100)
	p.MaxObjectSize = 1024
	pipe := startPipeline(t, store, p)
	// Four contiguous 1 KiB pages merge into one 4 KiB run, which must be
	// split back into 4 objects of ≤ 1 KiB.
	for i := 0; i < 4; i++ {
		if _, err := pipe.submit("pg_xlog/0001", int64(i)*1024, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	if got := pipe.stats.walObjects.Load(); got != 4 {
		t.Fatalf("uploaded %d objects, want 4 after split", got)
	}
}

func TestPipelineNoLossConfiguration(t *testing.T) {
	// S = B = 1: every submit must wait for its own upload (synchronous
	// replication, the paper's No-Loss column).
	store := cloud.NewMemStore()
	pipe := startPipeline(t, store, testParams(1, 1))
	for i := 0; i < 5; i++ {
		if _, err := pipe.submit("pg_xlog/0001", int64(i)*8192, []byte("x")); err != nil {
			t.Fatal(err)
		}
		// Hmm: with S=1, put blocks while len(items) > 1; a single item
		// does not block, so after submit returns there may be ≤ 1
		// pending. The durability point is the *next* submit. Verify the
		// queue never holds more than 1.
		if got := pipe.q.size(); got > 1 {
			t.Fatalf("queue size %d with S=1", got)
		}
	}
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
}

func TestPipelineSafetyTimeoutBlocks(t *testing.T) {
	// TS expires with one pending update whose upload is stalled: the
	// next submit must block even though size ≤ S.
	store := newGatedStore()
	release := store.block("WAL/")
	p := testParams(1, 100)
	p.SafetyTimeout = 30 * time.Millisecond
	pipe := startPipeline(t, store, p)

	if _, err := pipe.submit("pg_xlog/0001", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // let TS fire

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		pipe.submit("pg_xlog/0001", 8192, []byte("x")) //nolint:errcheck
	}()
	select {
	case <-blocked:
		t.Fatal("submit returned although TS had expired with pending uploads")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("submit did not unblock after uploads completed")
	}
}

func TestCommitQueueDrainEmpty(t *testing.T) {
	q := newCommitQueue(DefaultParams())
	defer q.close()
	if !q.drain(10 * time.Millisecond) {
		t.Fatal("empty queue must drain immediately")
	}
}

func TestCommitQueuePutAfterClose(t *testing.T) {
	q := newCommitQueue(DefaultParams())
	q.close()
	if _, err := q.put(update{path: "f"}); err != ErrQueueClosed {
		t.Fatalf("put after close = %v", err)
	}
}
