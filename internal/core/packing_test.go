package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/sealer"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

func mkWrite(path string, off int64, n int, fill byte) FileWrite {
	data := bytes.Repeat([]byte{fill}, n)
	return FileWrite{Path: path, Offset: off, Data: data}
}

func planShape(plan [][]FileWrite) []int {
	shape := make([]int, len(plan))
	for i, g := range plan {
		shape[i] = len(g)
	}
	return shape
}

func TestPackWritesPlanner(t *testing.T) {
	for _, tc := range []struct {
		name    string
		writes  []FileWrite
		maxSize int64
		want    []int // writes per object
	}{
		{"empty", nil, 100, []int{}},
		{"single", []FileWrite{mkWrite("f", 0, 10, 'a')}, 100, []int{1}},
		{"all fit in one", []FileWrite{
			mkWrite("f", 0, 30, 'a'), mkWrite("g", 0, 30, 'b'), mkWrite("f", 100, 30, 'c'),
		}, 100, []int{3}},
		{"greedy fill", []FileWrite{
			mkWrite("f", 0, 40, 'a'), mkWrite("f", 100, 40, 'b'),
			mkWrite("f", 200, 40, 'c'), mkWrite("f", 300, 40, 'd'),
		}, 100, []int{2, 2}},
		{"no limit packs everything", []FileWrite{
			mkWrite("f", 0, 1000, 'a'), mkWrite("g", 0, 1000, 'b'),
		}, 0, []int{2}},
		{"oversized write split", []FileWrite{
			mkWrite("f", 0, 250, 'a'),
		}, 100, []int{1, 1, 1}},
		{"split tail shares object with next", []FileWrite{
			mkWrite("f", 0, 150, 'a'), mkWrite("g", 0, 40, 'b'),
		}, 100, []int{1, 2}},
		{"whole file never split", []FileWrite{
			{Path: "f", Whole: true, Data: bytes.Repeat([]byte{'w'}, 250)},
		}, 100, []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := PackWrites(tc.writes, tc.maxSize)
			if got := planShape(plan); len(got) != len(tc.want) || fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("plan shape = %v, want %v", got, tc.want)
			}
			// No object may exceed maxSize unless it holds a single
			// unsplittable (Whole) write.
			for _, group := range plan {
				var total int64
				for _, w := range group {
					total += int64(len(w.Data))
				}
				if tc.maxSize > 0 && total > tc.maxSize && !(len(group) == 1 && group[0].Whole) {
					t.Fatalf("object holds %d bytes > maxSize %d", total, tc.maxSize)
				}
			}
			// Concatenating the plan in order must reproduce the input
			// byte-for-byte (splits included).
			var wantBytes, gotBytes []byte
			for _, w := range tc.writes {
				wantBytes = append(wantBytes, w.Data...)
			}
			for _, group := range plan {
				for _, w := range group {
					gotBytes = append(gotBytes, w.Data...)
				}
			}
			if !bytes.Equal(wantBytes, gotBytes) {
				t.Fatal("plan does not preserve payload bytes in order")
			}
		})
	}
}

func TestAppendPackWritesReusesPlan(t *testing.T) {
	writes := []FileWrite{
		mkWrite("f", 0, 40, 'a'), mkWrite("f", 100, 40, 'b'), mkWrite("f", 200, 40, 'c'),
	}
	plan := AppendPackWrites(nil, writes, 100)
	if len(plan) != 2 {
		t.Fatalf("plan = %v objects, want 2", len(plan))
	}
	// Re-planning a smaller batch into the same plan must reuse the outer
	// and inner backing arrays, not grow them.
	outerCap, innerCap := cap(plan), cap(plan[0])
	plan = AppendPackWrites(plan, writes[:1], 100)
	if len(plan) != 1 || len(plan[0]) != 1 {
		t.Fatalf("re-plan shape = %v", planShape(plan))
	}
	if cap(plan) != outerCap || cap(plan[0]) != innerCap {
		t.Fatalf("re-plan reallocated: outer %d→%d inner %d→%d",
			outerCap, cap(plan), innerCap, cap(plan[0]))
	}
}

func TestAckRing(t *testing.T) {
	r := newAckRing(5, 64) // frontier = 4
	if got := r.advance(); got != 4 {
		t.Fatalf("empty advance = %d, want 4", got)
	}
	r.set(7) // out of order: frontier must not move
	r.set(6)
	if got := r.advance(); got != 4 {
		t.Fatalf("advance with gap at 5 = %d, want 4", got)
	}
	r.set(5) // gap filled: frontier jumps over the whole run
	if got := r.advance(); got != 7 {
		t.Fatalf("advance = %d, want 7", got)
	}
	r.set(3) // duplicate ack below the window is ignored
	r.set(8)
	if got := r.advance(); got != 8 {
		t.Fatalf("advance = %d, want 8", got)
	}
}

func TestAckRingGrowsBeyondWindow(t *testing.T) {
	r := newAckRing(1, 64) // one word
	if len(r.bits) != 1 {
		t.Fatalf("initial ring = %d words, want 1", len(r.bits))
	}
	// Consume a run first so start sits mid-word, then acknowledge a wide
	// span in reverse so the ring must grow while misaligned, exercising
	// the re-linearisation.
	for ts := int64(1); ts <= 40; ts++ {
		r.set(ts)
	}
	if got := r.advance(); got != 40 {
		t.Fatalf("advance = %d, want 40", got)
	}
	for ts := int64(300); ts >= 41; ts-- {
		r.set(ts)
	}
	if got := r.advance(); got != 300 {
		t.Fatalf("advance after growth = %d, want 300", got)
	}
	if r.set(301); r.advance() != 301 {
		t.Fatal("ring broken after growth")
	}
}

// TestPipelinePacksBatchIntoOnePut is the tentpole contract: a full batch
// of B small scattered writes becomes ONE sealed object and ONE cloud PUT
// whose body carries every write.
func TestPipelinePacksBatchIntoOnePut(t *testing.T) {
	store := cloud.NewMemStore()
	p := testParams(10, 100)
	pipe := startPipeline(t, store, p)
	for i := 0; i < 10; i++ {
		// Distinct files: aggregation cannot coalesce, only packing can
		// reduce the PUT count.
		if _, err := pipe.submit(fmt.Sprintf("pg_xlog/%04d", i), 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	if got := pipe.stats.walObjects.Load(); got != 1 {
		t.Fatalf("uploaded %d WAL objects, want 1 packed object", got)
	}
	if got := pipe.stats.packedObjects.Load(); got != 1 {
		t.Fatalf("packedObjects = %d, want 1", got)
	}
	infos, err := store.List(context.Background(), "WAL/")
	if err != nil || len(infos) != 1 {
		t.Fatalf("cloud listing = %v, %v", infos, err)
	}
	sealed, err := store.Get(context.Background(), infos[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	body, err := sealer.NewPlain().Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	writes, err := DecodeWrites(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 10 {
		t.Fatalf("packed body carries %d writes, want 10", len(writes))
	}
	// Name-vs-body contract: the object is named after the first write.
	first := writes[0]
	if want := WALObjectName(1, first.Path, first.Offset); infos[0].Name != want {
		t.Fatalf("object name = %q, want %q (first write)", infos[0].Name, want)
	}
}

// TestPipelinePackingRespectsMaxObjectSize: a batch bigger than
// MaxObjectSize packs into ceil(batch bytes / MaxObjectSize) objects.
func TestPipelinePackingRespectsMaxObjectSize(t *testing.T) {
	store := cloud.NewMemStore()
	p := testParams(8, 100)
	p.MaxObjectSize = 1024
	pipe := startPipeline(t, store, p)
	for i := 0; i < 8; i++ { // 8 × 512 B on distinct files = 4 KiB → 4 objects
		if _, err := pipe.submit(fmt.Sprintf("pg_xlog/%04d", i), 0, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	if got := pipe.stats.walObjects.Load(); got != 4 {
		t.Fatalf("uploaded %d objects, want 4 (= ceil(4096/1024))", got)
	}
}

// TestPipelineRetryDelayFloorVirtualClock is the pipeline-level half of
// the regression test for the retry hot-loop hazard: a caller that builds
// Params by hand (bypassing Validate's defaults) leaves RetryBaseDelay at
// 0, which used to double to 0 forever — a busy spin against a down
// provider. Here: three failures are three counted commit-path retries and
// the object lands. The delays themselves (1 ms floor, jitter window) are
// asserted by TestCloudIORetryPolicy, whose store times every attempt.
func TestPipelineRetryDelayFloorVirtualClock(t *testing.T) {
	clk := simclock.NewSim()
	p := testParams(1, 10)
	p.Clock = clk
	p.RetryBaseDelay = 0 // deliberately NOT validated
	store := &flakyStore{ObjectStore: cloud.NewMemStore(), failFirst: 3}
	pipe := newPipeline(NewCloudView(), plainIO(store, p), p)
	start := clk.Now()
	pipe.start(0)
	defer pipe.drainAndStop(time.Second)

	if _, err := pipe.submit("pg_xlog/0001", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !pipe.q.drain(time.Minute) || pipe.stats.walObjects.Load() != 1 {
		t.Fatalf("uploaded %d objects, want 1", pipe.stats.walObjects.Load())
	}
	if got := pipe.io.retries.Load(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if clk.Since(start) == 0 {
		t.Fatal("three retries took no virtual time: the backoff is a spin")
	}
}

// TestPackedWALRoundTrip is the pack → seal → upload → disaster → recover
// property test: random write workloads (multi-write packed bodies, split
// oversized writes, rewrites) must recover byte-identical on a fresh
// machine.
func TestPackedWALRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := cloud.NewMemStore()
			localFS := vfs.NewMemFS()
			p := DefaultParams()
			p.Batch = 8
			p.Safety = 512
			p.BatchTimeout = 20 * time.Millisecond
			p.MaxObjectSize = 2048 // small: forces packing AND splitting
			p.RetryBaseDelay = time.Millisecond
			g, err := New(localFS, store, dbevent.NewPGProcessor(), p)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Boot(context.Background()); err != nil {
				t.Fatal(err)
			}
			fsys := g.FS()
			files := []string{"pg_xlog/0001", "pg_xlog/0002", "pg_xlog/0003"}
			for i := 0; i < 60; i++ {
				path := files[rng.Intn(len(files))]
				off := int64(rng.Intn(16)) * 512
				size := 1 + rng.Intn(4096) // some writes exceed MaxObjectSize
				data := make([]byte, size)
				rng.Read(data)
				if err := vfs.WriteAt(fsys, path, off, data); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if !g.Flush(5 * time.Second) {
				t.Fatal("flush timed out")
			}
			if g.Stats().PackedWALObjects == 0 {
				t.Fatal("workload produced no packed objects; property not exercised")
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}

			freshFS := vfs.NewMemFS()
			g2, err := New(freshFS, store, dbevent.NewPGProcessor(), p)
			if err != nil {
				t.Fatal(err)
			}
			if err := g2.Recover(context.Background()); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer g2.Close()
			for _, path := range files {
				want, err1 := vfs.ReadFile(localFS, path)
				got, err2 := vfs.ReadFile(freshFS, path)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: original err=%v recovered err=%v", path, err1, err2)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s differs after recovery: %d vs %d bytes", path, len(want), len(got))
				}
			}
		})
	}
}

// TestCrashMidPackedBatch: a batch packs into three objects; the middle
// one (ts=2) never reaches the cloud before the crash. Recovery must apply
// only the consecutive-ts prefix (ts=1) — not the already-uploaded ts=3 —
// and the loss stays within the Safety bound.
func TestCrashMidPackedBatch(t *testing.T) {
	mem := cloud.NewMemStore()
	gs := &gatedStore{ObjectStore: mem, blocked: make(map[string]chan struct{})}
	gs.block("WAL/2_")

	localFS := vfs.NewMemFS()
	p := DefaultParams()
	p.Batch = 6
	p.Safety = 64
	p.BatchTimeout = 20 * time.Millisecond
	p.MaxObjectSize = 200 // 6 × 100 B writes → 3 packed objects (ts 1,2,3)
	p.RetryBaseDelay = time.Millisecond
	g, err := New(localFS, gs, dbevent.NewPGProcessor(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	fsys := g.FS()
	for i := 0; i < 6; i++ {
		data := bytes.Repeat([]byte{'a' + byte(i)}, 100)
		if err := vfs.WriteAt(fsys, "pg_xlog/0001", int64(i)*100, data); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for ts=1 and ts=3 to land; ts=2 is stuck behind the gate.
	for infos, _ := mem.List(context.Background(), "WAL/"); len(infos) < 2; infos, _ = mem.List(context.Background(), "WAL/") {
		time.Sleep(time.Millisecond)
	}
	// Crash: abort in-flight uploads without draining (the gated PUT is
	// cancelled, ts=2 is lost with the machine).
	g.pipe.drainAndStop(10 * time.Millisecond) //nolint:errcheck
	g.ckpt.stop(10 * time.Millisecond)         //nolint:errcheck // the dead machine's other thread

	freshFS := vfs.NewMemFS()
	g2, err := New(freshFS, mem, dbevent.NewPGProcessor(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer g2.Close()
	got, err := vfs.ReadFile(freshFS, "pg_xlog/0001")
	if err != nil {
		t.Fatalf("recovered WAL missing: %v", err)
	}
	// ts=1 carried writes 0 and 1 (offsets 0–199): they must be present.
	want := append(bytes.Repeat([]byte{'a'}, 100), bytes.Repeat([]byte{'b'}, 100)...)
	if len(got) < 200 || !bytes.Equal(got[:200], want) {
		t.Fatalf("consecutive prefix (ts=1) not recovered: %d bytes", len(got))
	}
	// ts=3 (offsets 400–599) is beyond the ts=2 gap: applying it would
	// break the prefix rule and fabricate a state the DBMS never had.
	if len(got) > 400 {
		t.Fatalf("recovered %d bytes: ts=3 applied past the ts=2 gap", len(got))
	}
	// Loss accounting: 4 updates (writes 2–5) ≤ S.
	if lost := 6 - 2; lost > p.Safety {
		t.Fatalf("lost %d updates > Safety %d", lost, p.Safety)
	}
}
