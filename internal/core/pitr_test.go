package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// pitrParams: one WAL object per commit (B = 1) so every flushed commit
// is its own recovery point, a long retention window so nothing is
// trimmed mid-property, and tiny objects so dumps split into parts.
func pitrParams() Params {
	p := DefaultParams()
	p.Batch = 1
	p.Safety = 16
	p.BatchTimeout = 20 * time.Millisecond
	p.RetryBaseDelay = time.Millisecond
	p.MaxObjectSize = 4096
	p.RetainFor = time.Hour
	return p
}

// TestPITRExactPrefixProperty is the point-in-time recovery property:
// for EVERY retained commit timestamp, RecoverAt(ts) rebuilds exactly
// the consistent prefix of commits ≤ ts — not the nearest checkpoint,
// not a superset — across randomized put/delete/checkpoint workloads.
// Recovery points are recorded at flush boundaries, where the WAL
// frontier is durable and unambiguous (see DESIGN §15 for why mid-flush
// targets are only guaranteed at those boundaries).
func TestPITRExactPrefixProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			pitrPropertyRun(t, seed)
		})
	}
}

func pitrPropertyRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	params := pitrParams()
	store := cloud.NewMemStore()
	proc := dbevent.NewPGProcessor()
	g, err := New(vfs.NewMemFS(), store, proc, params)
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

	type point struct {
		ts   int64
		snap map[string]string
	}
	var points []point
	cur := map[string]string{}
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	steps := 24 + rng.Intn(12)
	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(len(keys))]
		if _, exists := cur[key]; exists && rng.Intn(4) == 0 {
			if err := db.Update(func(tx *minidb.Txn) error {
				return tx.Delete("kv", []byte(key))
			}); err != nil {
				t.Fatal(err)
			}
			delete(cur, key)
		} else {
			val := fmt.Sprintf("s%d-v%d", step, rng.Intn(1000))
			if err := db.Update(func(tx *minidb.Txn) error {
				return tx.Put("kv", []byte(key), []byte(val))
			}); err != nil {
				t.Fatal(err)
			}
			cur[key] = val
		}
		if !g.Flush(5 * time.Second) {
			t.Fatal("flush")
		}
		snap := make(map[string]string, len(cur))
		for k, v := range cur {
			snap[k] = v
		}
		points = append(points, point{ts: g.view.LastWALTs(), snap: snap})
		if step%7 == 6 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if !g.SyncCheckpoints(5 * time.Second) {
				t.Fatal("checkpoint settle")
			}
		}
	}

	// Every recorded commit timestamp must recover to exactly its prefix.
	for _, p := range points {
		target := vfs.NewMemFS()
		gr, err := New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
		if err != nil {
			t.Fatal(err)
		}
		if err := gr.RecoverAt(context.Background(), target, p.ts); err != nil {
			t.Fatalf("RecoverAt(%d): %v", p.ts, err)
		}
		db2, err := minidb.Open(target, pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
		if err != nil {
			t.Fatalf("open at ts %d: %v", p.ts, err)
		}
		for _, k := range keys {
			got, gerr := db2.Get("kv", []byte(k))
			want, exists := p.snap[k]
			switch {
			case exists && (gerr != nil || string(got) != want):
				t.Fatalf("ts %d key %s: got %q, %v; want %q", p.ts, k, got, gerr, want)
			case !exists && gerr == nil:
				t.Fatalf("ts %d key %s: present as %q; want absent (not a consistent prefix)", p.ts, k, got)
			}
		}
	}
}

// simPITRParams is pitrParams on a virtual clock: the retention window
// closes when the test moves time, never by the machine's pace.
func simPITRParams() Params {
	p := pitrParams()
	p.Clock = simclock.NewSim()
	return p
}

// TestRetentionTrimExpiresWindow: once the RetainFor window closes, the
// trimmer deletes retired objects and RecoverAt before the oldest
// surviving dump reports ErrNoDump ("outside the retention window").
func TestRetentionTrimExpiresWindow(t *testing.T) {
	params := simPITRParams()
	params.RetainFor = 30 * time.Millisecond
	store := cloud.NewMemStore()
	g, err := New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
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
	// Churn until the 150 % rule retires the boot generation, then let the
	// window expire and a later sweep trim it: each round moves the clock a
	// trimmer tick (RetainFor/4).
	for round := 0; g.Stats().WALObjectsDeleted == 0 || g.Stats().DBObjectsDeleted == 0; round++ {
		if round == 100 {
			t.Fatalf("retention never trimmed (stats %+v)", g.Stats())
		}
		for i := 0; i < 8; i++ {
			if err := db.Update(func(tx *minidb.Txn) error {
				return tx.Put("kv", []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("r%d", round)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !g.Flush(5 * time.Second) {
			t.Fatal("flush")
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !g.SyncCheckpoints(5 * time.Second) {
			t.Fatal("settle")
		}
		params.Clock.Sleep(params.RetainFor / 4)
	}
	// The boot dump (ts 0) is gone: a target before the oldest surviving
	// dump has no qualifying recovery point.
	gr, err := New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.RecoverAt(context.Background(), vfs.NewMemFS(), 0); !errors.Is(err, ErrNoDump) {
		t.Fatalf("RecoverAt(0) after trim: got %v, want ErrNoDump", err)
	}
	// The newest state still recovers fine.
	if err := gr.RecoverAt(context.Background(), vfs.NewMemFS(), -1); err != nil {
		t.Fatalf("RecoverAt(-1) after trim: %v", err)
	}
}

// TestRetentionObjectCapTrimsEarly: with an effectively infinite window,
// the RetainObjects cap still bounds the retained chain (BtrLog-style),
// trimming the oldest-superseded objects inline with GC.
func TestRetentionObjectCapTrimsEarly(t *testing.T) {
	params := simPITRParams()
	params.RetainFor = time.Hour
	params.RetainObjects = 4
	store := cloud.NewMemStore()
	g, err := New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
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
	for round := 0; round < 10 && g.Stats().WALObjectsDeleted == 0; round++ {
		for i := 0; i < 8; i++ {
			if err := db.Update(func(tx *minidb.Txn) error {
				return tx.Put("kv", []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("r%d", round)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !g.Flush(5 * time.Second) {
			t.Fatal("flush")
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !g.SyncCheckpoints(5 * time.Second) {
			t.Fatal("settle")
		}
	}
	if g.Stats().WALObjectsDeleted == 0 {
		t.Fatalf("RetainObjects cap never trimmed (stats %+v)", g.Stats())
	}
}

// TestRebootLeavesRetainedObjectsOutOfDumpRule: a view rebuilt by Reboot
// sizes the 150 % rule exactly like the instance that stopped. The objects
// a re-dump (or a delta) superseded but the retention window keeps in the
// bucket are history, not live cloud state; counting them would make the
// first checkpoint after the restart a full dump.
func TestRebootLeavesRetainedObjectsOutOfDumpRule(t *testing.T) {
	for _, deltas := range []bool{false, true} {
		t.Run(map[bool]string{false: "dumps", true: "deltas"}[deltas], func(t *testing.T) {
			params := simPITRParams()
			params.DeltaCheckpoints = deltas
			params.DeltaCompactRatio = 10 // the crossing ships a delta, never a fold
			rebootRetainedRun(t, params)
		})
	}
}

// TestRecoverySkipsWrittenOffCheckpoints: under a retention window the
// bucket still lists the checkpoints a chain delta recaptured, but no
// recovery needs them. RecoverAt(-1) and a Follower's first poll each fetch
// exactly live(-1) and its WAL run — none of those checkpoints — and the
// follower's view then holds live(-1) and the WAL past its newest DB
// object, nothing it has written off.
func TestRecoverySkipsWrittenOffCheckpoints(t *testing.T) {
	params := simPITRParams()
	params.DeltaCheckpoints = true
	params.DeltaCompactRatio = 10 // the crossing ships a delta, never a fold
	_, store, _ := retainedHistory(t, params)
	ctx := context.Background()

	infos, err := store.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	v := NewCloudView()
	if err := v.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	_, run, err := live(v.DBObjects(), v.WALObjects(), -1)
	if err != nil {
		t.Fatal(err)
	}
	// The one chain element is a delta on the boot dump: every listed
	// checkpoint before it is written off.
	var delta DBObjectInfo
	for _, d := range v.DBObjects() {
		if d.Type == Delta {
			delta = d
		}
	}
	var keep []DBObjectInfo
	writtenOff := 0
	for _, d := range v.DBObjects() {
		if d.Type == Checkpoint && d.Before(delta) {
			writtenOff += len(d.PartNames())
		} else {
			keep = append(keep, d)
		}
	}
	if delta.Type != Delta || writtenOff == 0 {
		t.Fatalf("bucket %s: want a delta with retained checkpoints before it", planSig(v.DBObjects(), nil))
	}
	want := len(planNames(keep, run))

	g, err := New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RecoverAt(ctx, vfs.NewMemFS(), -1); err != nil {
		t.Fatal(err)
	}
	bdAt := g.Stats().LastRecovery
	t.Logf("RecoverAt(-1): %d objects, %d B; %d listed parts written off", bdAt.Objects, bdAt.Bytes, writtenOff)
	if bdAt.Objects != want {
		t.Fatalf("RecoverAt(-1) fetched %d objects, want %d (the bucket holds %d parts of written-off checkpoints)",
			bdAt.Objects, want, writtenOff)
	}

	f, err := NewFollower(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Start's first poll, with a breakdown to count what it fetches.
	bd := &RecoveryBreakdown{}
	if complete, err := f.poll(ctx, infos, bd); err != nil || !complete {
		t.Fatalf("first poll: complete %v, %v", complete, err)
	}
	if bd.Objects != want {
		t.Fatalf("a follower's first poll fetched %d objects, want %d (the bucket holds %d parts of written-off checkpoints)",
			bd.Objects, want, writtenOff)
	}
	var past []WALObjectInfo
	for _, w := range v.WALObjects() {
		if w.Ts > keep[len(keep)-1].Ts {
			past = append(past, w)
		}
	}
	if got, want := planSig(f.view.DBObjects(), f.view.WALObjects()), planSig(keep, past); got != want {
		t.Fatalf("the follower's view holds %s, want live(-1) and the WAL past it: %s", got, want)
	}
}

// retainedHistory boots a primary, churns until the 150 % rule ships a
// chain element, and stops it cleanly: with a long enough window the
// bucket still holds every object the element superseded. It returns the
// stopped instance, its bucket and its local files.
func retainedHistory(t *testing.T, params Params) (*Ginja, cloud.ObjectStore, vfs.FS) {
	t.Helper()
	store := cloud.NewMemStore()
	local := vfs.NewMemFS()
	g, err := New(local, store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	db, err := minidb.Open(g.FS(), pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; g.Stats().Dumps+g.Stats().Deltas == 0; round++ {
		if round == 10 {
			t.Fatalf("no chain element after %d rounds (stats %+v)", round, g.Stats())
		}
		for i := 0; i < 200; i++ {
			if err := db.Update(func(tx *minidb.Txn) error {
				return tx.Put("kv", []byte(fmt.Sprintf("row-%03d", i)), []byte(fmt.Sprintf("r%d-%0400d", round, i)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !g.Flush(5 * time.Second) {
			t.Fatal("flush")
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !g.SyncCheckpoints(5 * time.Second) {
			t.Fatal("checkpoint settle")
		}
	}
	if st := g.Stats(); params.DeltaCheckpoints != (st.Deltas > 0) {
		t.Fatalf("DeltaCheckpoints %v shipped %d dumps, %d deltas", params.DeltaCheckpoints, st.Dumps, st.Deltas)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return g, store, local
}

func rebootRetainedRun(t *testing.T, params Params) {
	g, store, local := retainedHistory(t, params)
	live := g.view.TotalDBSize()

	g2, err := New(local, store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Reboot(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if n, retained := len(g2.view.DBObjects()), len(g.view.DBObjects()); n != retained || n < 3 {
		t.Fatalf("reboot lists %d DB objects, the stopped instance %d; want the same ≥ 3 (a chain element and retained objects it superseded)", n, retained)
	}
	if got := g2.view.TotalDBSize(); got != live {
		t.Fatalf("TotalDBSize after Reboot = %d, want %d as before the stop", got, live)
	}
	db2, err := minidb.Open(g2.FS(), pgengine.NewWithSizes(512, 8192, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Update(func(tx *minidb.Txn) error {
		return tx.Put("kv", []byte("row-000"), []byte("after reboot"))
	}); err != nil {
		t.Fatal(err)
	}
	if !g2.Flush(5 * time.Second) {
		t.Fatal("flush after reboot")
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !g2.SyncCheckpoints(5 * time.Second) {
		t.Fatal("checkpoint settle after reboot")
	}
	if st := g2.Stats(); st.Dumps+st.Deltas != 0 || st.Checkpoints != 1 {
		t.Fatalf("first checkpoint after Reboot: %d dumps, %d deltas, %d checkpoints; want an incremental checkpoint", st.Dumps, st.Deltas, st.Checkpoints)
	}
}

// TestRestartTrimsListedHistory: an instance started on a bucket that
// holds retained history — superseded WAL and DB objects the stopped
// instance kept for its RetainFor window — trims it like its own. Start-up
// stamps what the listing holds superseded, the window restarts there, and
// a trimmer tick after it closes deletes the objects: RetainFor later the
// bucket holds what recovery plans, plus WAL newer than the plan's last DB
// object, and nothing else.
func TestRestartTrimsListedHistory(t *testing.T) {
	for _, mode := range []string{"Reboot", "Recover"} {
		t.Run(mode, func(t *testing.T) { restartTrimRun(t, mode) })
	}
}

func restartTrimRun(t *testing.T, mode string) {
	params := simPITRParams()
	params.RetainFor = 200 * time.Millisecond
	// No virtual time passes while the history builds, so the window keeps
	// every superseded object in the bucket.
	g, store, local := retainedHistory(t, params)
	if st := g.Stats(); st.WALObjectsDeleted+st.DBObjectsDeleted != 0 {
		t.Fatalf("the window trimmed before the restart (stats %+v)", st)
	}
	if extra := unplanned(t, store); len(extra) == 0 {
		t.Fatal("no retained history in the bucket before the restart")
	}

	var g2 *Ginja
	var err error
	switch mode {
	case "Reboot":
		g2, err = New(local, store, dbevent.NewPGProcessor(), params)
		if err == nil {
			err = g2.Reboot(context.Background())
		}
	case "Recover":
		g2, err = New(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), params)
		if err == nil {
			err = g2.Recover(context.Background())
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	params.Clock.Sleep(300 * time.Millisecond)
	if extra := unplanned(t, store); len(extra) != 0 {
		t.Fatalf("300 ms after %s the bucket still holds %d objects recovery does not plan: %v (stats %+v)",
			mode, len(extra), extra, g2.Stats())
	}
	if st := g2.Stats(); st.WALObjectsDeleted == 0 || st.DBObjectsDeleted == 0 {
		t.Fatalf("stats %+v: want the listed WAL and DB history deleted", st)
	}
}

// unplanned lists the bucket's objects that neither recovery's plan of the
// newest state fetches nor are WAL objects newer than its last DB object.
func unplanned(t *testing.T, store cloud.ObjectStore) []string {
	t.Helper()
	infos, err := store.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	v := NewCloudView()
	if err := v.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	db, run, err := live(v.DBObjects(), v.WALObjects(), -1)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{}
	for _, name := range planNames(db, run) {
		keep[name] = true
	}
	for _, w := range v.WALObjects() {
		if w.Ts > db[len(db)-1].Ts {
			keep[w.Name()] = true
		}
	}
	var extra []string
	for _, info := range infos {
		if !keep[info.Name] {
			extra = append(extra, info.Name)
		}
	}
	return extra
}
