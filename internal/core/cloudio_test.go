package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

var errTransient = errors.New("transient cloud failure")

// scriptStore answers every operation from a script: the first failFirst
// calls fail with err, later ones succeed. It records the instant of each
// call on clk.
type scriptStore struct {
	clk       simclock.Clock
	mu        sync.Mutex
	calls     int
	at        []time.Time
	failFirst int
	err       error
}

func (s *scriptStore) next() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	s.at = append(s.at, s.clk.Now())
	if s.calls <= s.failFirst {
		return s.err
	}
	return nil
}

func (s *scriptStore) Put(context.Context, string, []byte) error { return s.next() }
func (s *scriptStore) Get(context.Context, string) ([]byte, error) {
	return []byte("body"), s.next()
}
func (s *scriptStore) List(context.Context, string) ([]cloud.ObjectInfo, error) {
	return nil, s.next()
}
func (s *scriptStore) Delete(context.Context, string) error { return s.next() }

// TestCloudIORetryPolicy is the table of the one retry loop, for each of
// the four operations, on a virtual clock: the store records the instant
// of every attempt, so each backoff is read off exactly as the gap between
// two attempts and no verdict depends on how fast anything runs.
func TestCloudIORetryPolicy(t *testing.T) {
	ops := map[string]func(c *cloudIO, ctx context.Context, once bool) error{
		"put-safety": func(c *cloudIO, ctx context.Context, _ bool) error {
			return c.put(ctx, classSafety, "WAL/1_wal_0", nil)
		},
		"put-bulk": func(c *cloudIO, ctx context.Context, _ bool) error {
			return c.put(ctx, classBulk, "DB/1_d_10", nil)
		},
		"get": func(c *cloudIO, ctx context.Context, _ bool) error {
			_, err := c.get(ctx, "DB/1_d_10")
			return err
		},
		"list": func(c *cloudIO, ctx context.Context, once bool) error {
			_, err := c.list(ctx, once)
			return err
		},
		"delete": func(c *cloudIO, ctx context.Context, _ bool) error {
			return c.delete(ctx, "WAL/1_wal_0")
		},
	}
	type tc struct {
		name      string
		only      string // run for this op alone ("" = all)
		base      time.Duration
		retries   int // Params.UploadRetries
		failFirst int
		err       error
		once      bool
		cancelAt  time.Duration // cancel the context at this instant (0 = never)

		wantErr    error // nil = success
		wantSleeps int   // backoffs begun; a cancelled one is cut short
		wantCalls  int
	}
	cases := []tc{
		{name: "floor-zero-base", base: 0, failFirst: 3, err: errTransient, wantSleeps: 3, wantCalls: 4},
		{name: "jitter-window", base: 100 * time.Millisecond, failFirst: 5, err: errTransient, wantSleeps: 5, wantCalls: 6},
		{name: "cap", base: 2 * time.Second, failFirst: 7, err: errTransient, wantSleeps: 7, wantCalls: 8},
		{name: "bounded-attempts", base: time.Millisecond, retries: 3, failFirst: 99, err: errTransient,
			wantErr: errTransient, wantSleeps: 2, wantCalls: 3},
		{name: "get-not-found-permanent", only: "get", base: time.Millisecond, failFirst: 99, err: cloud.ErrNotFound,
			wantErr: cloud.ErrNotFound, wantSleeps: 0, wantCalls: 1},
		{name: "delete-not-found-success", only: "delete", base: time.Millisecond, failFirst: 99, err: cloud.ErrNotFound,
			wantSleeps: 0, wantCalls: 1},
		// Attempt 2 lands in [0.5s, 1s) and attempt 3 could not before
		// 1.5s: 1.25s is inside the second backoff.
		{name: "cancel-mid-sleep", base: time.Second, failFirst: 99, err: errTransient, cancelAt: 1250 * time.Millisecond,
			wantErr: errTransient, wantSleeps: 2, wantCalls: 2},
		{name: "poll-list-single-attempt", only: "list", base: time.Millisecond, failFirst: 99, err: errTransient, once: true,
			wantErr: errTransient, wantSleeps: 0, wantCalls: 1},
	}
	for _, c := range cases {
		for opName, op := range ops {
			if c.only != "" && c.only != opName {
				continue
			}
			c, op := c, op
			t.Run(c.name+"/"+opName, func(t *testing.T) {
				clk := simclock.NewSim()
				store := &scriptStore{clk: clk, failFirst: c.failFirst, err: c.err}
				// Hand-built Params: RetryBaseDelay 0 must stay 0 on the way in.
				io, err := newCloudIO(store, Params{Clock: clk, RetryBaseDelay: c.base, UploadRetries: c.retries})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				start := clk.Now()
				var opErr error
				var took time.Duration
				g := simclock.NewGroup(clk)
				g.Go(func() {
					opErr = op(io, ctx, c.once)
					took = clk.Since(start)
				})
				if c.cancelAt > 0 {
					clk.Sleep(c.cancelAt)
					cancel()
				}
				g.Wait()
				if c.cancelAt > 0 && took != c.cancelAt {
					t.Fatalf("returned at +%v, want at the cancel instant +%v", took, c.cancelAt)
				}
				var sleeps []time.Duration
				for k := 1; k < len(store.at); k++ {
					sleeps = append(sleeps, store.at[k].Sub(store.at[k-1]))
				}
				completed := c.wantSleeps
				if c.cancelAt > 0 {
					completed--
				}

				if c.wantErr == nil && opErr != nil {
					t.Fatalf("err = %v, want success", opErr)
				}
				if c.wantErr != nil && !errors.Is(opErr, c.wantErr) {
					t.Fatalf("err = %v, want %v", opErr, c.wantErr)
				}
				if store.calls != c.wantCalls {
					t.Fatalf("store calls = %d, want %d", store.calls, c.wantCalls)
				}
				if len(sleeps) != completed {
					t.Fatalf("sleeps = %v, want %d of them", sleeps, completed)
				}
				// Sleep k is the nominal delay — base floored at 1 ms,
				// doubled k times, capped at maxRetryDelay — scaled into
				// [d/2, d) and floored at 1 ms.
				nominal := c.base
				if nominal < time.Millisecond {
					nominal = time.Millisecond
				}
				for k, got := range sleeps {
					lo, hi := nominal/2, nominal
					if lo < time.Millisecond {
						lo = time.Millisecond
					}
					if got < lo || got > hi || (got == hi && hi > time.Millisecond) {
						t.Fatalf("sleep %d = %v, want in [%v, %v) (all sleeps %v)", k, got, lo, hi, sleeps)
					}
					nominal = min(nominal*2, maxRetryDelay)
				}
				wantRetries := int64(0)
				if opName == "put-safety" {
					wantRetries = int64(c.wantSleeps)
				}
				if got := io.retries.Load(); got != wantRetries {
					t.Fatalf("Safety-class retries counted = %d, want %d", got, wantRetries)
				}
			})
		}
	}
}

// classRecorder sits where the fleet's schedStore sits — under the seam —
// and checks every operation against the oracle the seam replaced: the
// class schedStore used to derive by stripping the tenant prefix and
// string-matching the object name.
type classRecorder struct {
	cloud.ObjectStore
	prefix string

	mu   sync.Mutex
	seen map[string]int // "<op>/<class>" → count
	bad  []string
}

func (r *classRecorder) check(ctx context.Context, op, name string, want opClass) {
	got := classOf(ctx, -1)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case got == -1:
		r.bad = append(r.bad, fmt.Sprintf("%s %s arrived untagged", op, name))
	case got != want:
		r.bad = append(r.bad, fmt.Sprintf("%s %s tagged %s, want %s", op, name, opClassNames[got], opClassNames[want]))
	default:
		r.seen[op+"/"+opClassNames[got]]++
	}
}

func (r *classRecorder) Put(ctx context.Context, name string, data []byte) error {
	want := classBulk
	if strings.HasPrefix(strings.TrimPrefix(name, r.prefix), walPrefix) {
		want = classSafety
	}
	r.check(ctx, "put", name, want)
	return r.ObjectStore.Put(ctx, name, data)
}

func (r *classRecorder) Get(ctx context.Context, name string) ([]byte, error) {
	r.check(ctx, "get", name, classFetch)
	return r.ObjectStore.Get(ctx, name)
}

func (r *classRecorder) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	r.check(ctx, "list", prefix, classFetch)
	return r.ObjectStore.List(ctx, prefix)
}

func (r *classRecorder) Delete(ctx context.Context, name string) error {
	r.check(ctx, "delete", name, classBulk)
	return r.ObjectStore.Delete(ctx, name)
}

// TestClassParity drives one full life of a tenant — Boot, commits,
// checkpoints, threshold dumps, deltas, GC (or, under a retention window,
// retire + trim), Recover, RecoverAt, Verify, a Follower's start, polls and
// Promote — and asserts that every cloud operation reaches the store
// tagged, with exactly the class the fleet's name parser used to give it.
func TestClassParity(t *testing.T) {
	for _, retain := range []time.Duration{0, 5 * time.Millisecond} {
		retain := retain
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			t.Parallel()
			params := deltaParams(true)
			params.Prefix = "tenants/a"
			params.RetainFor = retain
			params.FollowInterval = 2 * time.Millisecond
			rec := &classRecorder{ObjectStore: cloud.NewMemStore(), prefix: "tenants/a/", seen: map[string]int{}}
			ctx := context.Background()

			g, err := New(vfs.NewMemFS(), rec, dbevent.NewPGProcessor(), params)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Boot(ctx); err != nil {
				t.Fatal(err)
			}
			db, err := minidb.Open(g.FS(), pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.CreateTable("kv", 0); err != nil {
				t.Fatal(err)
			}
			for _, op := range deltaWorkload(3) {
				err := db.Update(func(tx *minidb.Txn) error {
					if op.del {
						return tx.Delete("kv", []byte(op.key))
					}
					return tx.Put("kv", []byte(op.key), []byte(op.val))
				})
				if err != nil {
					t.Fatal(err)
				}
				if !g.Flush(5 * time.Second) {
					t.Fatal("flush")
				}
				if op.ckpt {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if !g.SyncCheckpoints(5 * time.Second) {
						t.Fatal("checkpoint settle")
					}
				}
			}
			lastTs := g.view.LastWALTs()
			if retain > 0 {
				// Let the window close, then one more checkpoint's inline trim
				// deletes what the sweeps above only retired.
				time.Sleep(4 * retain)
				if err := db.Update(func(tx *minidb.Txn) error { return tx.Put("kv", []byte("late"), []byte("x")) }); err != nil {
					t.Fatal(err)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if !g.SyncCheckpoints(5 * time.Second) {
					t.Fatal("checkpoint settle")
				}
				lastTs = g.view.LastWALTs()
			}
			st := g.Stats()
			if st.Checkpoints == 0 || st.Dumps == 0 || st.Deltas == 0 || st.WALObjectsDeleted == 0 || st.DBObjectsDeleted == 0 {
				t.Fatalf("run did not exercise every write path: %+v", st)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}

			fresh := func() *Ginja {
				t.Helper()
				gr, err := New(vfs.NewMemFS(), rec, dbevent.NewPGProcessor(), params)
				if err != nil {
					t.Fatal(err)
				}
				return gr
			}
			gr := fresh()
			if err := gr.Recover(ctx); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if err := gr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fresh().RecoverAt(ctx, vfs.NewMemFS(), lastTs); err != nil {
				t.Fatalf("recover at %d: %v", lastTs, err)
			}
			if _, err := fresh().Verify(ctx, vfs.NewMemFS(), nil, nil); err != nil {
				t.Fatalf("verify: %v", err)
			}

			fol, err := NewFollower(vfs.NewMemFS(), rec, dbevent.NewPGProcessor(), params)
			if err != nil {
				t.Fatal(err)
			}
			if err := fol.Start(ctx); err != nil {
				t.Fatalf("follower start: %v", err)
			}
			for fol.Stats().Polls < 3 {
				time.Sleep(params.FollowInterval)
			}
			gp, err := fol.Promote(ctx)
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			// The promoted instance writes under the same tenant prefix.
			pdb, err := minidb.Open(gp.FS(), pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := pdb.Update(func(tx *minidb.Txn) error { return tx.Put("kv", []byte("promoted"), []byte("y")) }); err != nil {
				t.Fatal(err)
			}
			if !gp.Flush(5 * time.Second) {
				t.Fatal("promoted flush")
			}
			if err := gp.Close(); err != nil {
				t.Fatal(err)
			}

			rec.mu.Lock()
			defer rec.mu.Unlock()
			for _, b := range rec.bad {
				t.Error(b)
			}
			for _, want := range []string{"put/safety", "put/bulk", "delete/bulk", "get/fetch", "list/fetch"} {
				if rec.seen[want] == 0 {
					t.Errorf("no %s operation was observed (seen %v)", want, rec.seen)
				}
			}
			infos, err := rec.ObjectStore.List(ctx, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range infos {
				if !strings.HasPrefix(info.Name, "tenants/a/WAL/") && !strings.HasPrefix(info.Name, "tenants/a/DB/") {
					t.Errorf("object %q landed outside the tenant prefix", info.Name)
				}
			}
		})
	}
}

// TestSchedStoreClassification: an operation that did not come through
// the seam (a tool using the fleet's store directly) is Bulk when it
// writes and Fetch when it reads — never an error, never Safety; a tagged
// one keeps its tag.
func TestSchedStoreClassification(t *testing.T) {
	clk := simclock.NewSim()
	sched := newFleetScheduler(clk, 4, 4, 4, 0, nil)
	s := &schedStore{inner: cloud.NewMemStore(), sched: sched, tenant: "a", safetyTimeout: time.Minute}
	ctx := context.Background()
	for _, c := range []struct {
		ctx  context.Context
		def  opClass
		want opClass
	}{
		{ctx, classBulk, classBulk},
		{ctx, classFetch, classFetch},
		{withClass(ctx, classSafety), classBulk, classSafety},
		{withClass(ctx, classBulk), classFetch, classBulk},
	} {
		var held [3]int64 // slots in use per class while the operation runs
		err := s.do(c.ctx, c.def, func() error {
			for i := range held {
				held[i] = sched.inflightByClass[i].Load()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range held {
			if want := opClass(i) == c.want; (n == 1) != want {
				t.Fatalf("default %s, want a %s slot: held %v", opClassNames[c.def], opClassNames[c.want], held)
			}
		}
	}
	if err := s.Put(ctx, "tenants/a/WAL/1_wal_0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "tenants/a/WAL/1_wal_0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "tenants/a/WAL/1_wal_0"); err != nil {
		t.Fatal(err)
	}
}
