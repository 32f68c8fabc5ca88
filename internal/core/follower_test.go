package core_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// startFollower attaches a warm standby to the rig's bucket on a fresh
// filesystem, polling fast enough for tests.
func startFollower(t *testing.T, r *rig, params core.Params) *core.Follower {
	t.Helper()
	params.FollowInterval = 2 * time.Millisecond
	fol, err := core.NewFollower(vfs.NewMemFS(), r.store, r.proc(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Start(context.Background()); err != nil {
		t.Fatalf("follower start: %v", err)
	}
	t.Cleanup(func() { fol.Close() })
	return fol
}

// TestFollowerWarmStandbyPromote is the tentpole end-to-end: a follower
// tails the bucket while the primary commits, the primary dies, and
// Promote hands back a live Ginja whose files hold every acknowledged
// commit — with the replication telemetry live in the registry.
func TestFollowerWarmStandbyPromote(t *testing.T) {
	reg := obs.NewRegistry()
	params := fastParams()
	params.Metrics = reg
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "before", "follower")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}

	fol := startFollower(t, r, params)

	// More commits land while the follower tails; wait until it visibly
	// replicated something so promote is warm, not a cold restore.
	for i := 0; i < 20; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "warm")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	deadline := time.Now().Add(5 * time.Second)
	for fol.Stats().AppliedWALObjects == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower applied nothing (stats %+v)", fol.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Disaster: the primary is gone. Promote must catch up and serve.
	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := fol.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer g2.Close()
	if _, err := fol.Promote(context.Background()); err == nil {
		t.Fatal("second promote succeeded; want error")
	}
	db2, err := minidb.Open(g2.FS(), r.engine(), minidb.Options{})
	if err != nil {
		t.Fatalf("open promoted replica: %v", err)
	}
	if _, err := db2.Get("kv", []byte("before")); err != nil {
		t.Fatalf("pre-follower key lost: %v", err)
	}
	for i := 0; i < 20; i++ {
		v, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || string(v) != "warm" {
			t.Fatalf("k%02d after promote: %q, %v", i, v, err)
		}
	}
	// And the promoted instance keeps protecting: a new commit replicates.
	if err := db2.Update(func(tx *minidb.Txn) error {
		return tx.Put("kv", []byte("after"), []byte("promote"))
	}); err != nil {
		t.Fatal(err)
	}
	if !g2.Flush(5 * time.Second) {
		t.Fatal("flush on promoted instance")
	}

	st := g2.Stats()
	if st.LastRecovery == nil || st.LastRecovery.Mode != "promote" {
		t.Fatalf("LastRecovery = %+v, want promote breakdown", st.LastRecovery)
	}
	fs := fol.Stats()
	if !fs.Promoted || fs.Polls == 0 {
		t.Fatalf("follower stats after promote: %+v", fs)
	}

	// The replication watermarks are live in /metrics.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ginja_follower_lag_seconds", "ginja_follower_applied_ts"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// The promote shows up in the span ring (/tracez).
	recent, slowest, _ := reg.Spans().Snapshot()
	found := false
	for _, s := range append(recent, slowest...) {
		if s.Name == "follower:promote" {
			found = true
		}
	}
	if !found {
		t.Error("no follower:promote span recorded")
	}
}

// TestFollowerSurvivesGCAndDumps tails through checkpoint/dump churn: the
// primary's GC deletes WAL objects under the follower (the LIST-to-GET
// race resolves as "superseded, skip") and complete multi-part dumps
// apply in order. The promoted replica must end at the newest state.
func TestFollowerSurvivesGCAndDumps(t *testing.T) {
	params := fastParams()
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	fol := startFollower(t, r, params)

	for round := 0; round < 12; round++ {
		for i := 0; i < 10; i++ {
			r.put(t, "kv", fmt.Sprintf("k%02d", i), fmt.Sprintf("round-%d", round))
		}
		if !r.g.Flush(5 * time.Second) {
			t.Fatal("flush")
		}
		if err := r.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !r.g.SyncCheckpoints(5 * time.Second) {
			t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
		}
	}
	if !r.g.SyncCheckpoints(5 * time.Second) {
		t.Fatal("checkpoints did not settle")
	}
	if r.g.Stats().Dumps == 0 {
		t.Fatalf("churn never produced a dump (stats %+v)", r.g.Stats())
	}

	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := fol.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer g2.Close()
	if err := fol.Err(); err != nil {
		t.Fatalf("follower tail error: %v", err)
	}
	db2, err := minidb.Open(g2.FS(), r.engine(), minidb.Options{})
	if err != nil {
		t.Fatalf("open promoted replica: %v", err)
	}
	for i := 0; i < 10; i++ {
		v, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || string(v) != "round-11" {
			t.Fatalf("k%02d after promote: %q, %v (want round-11)", i, v, err)
		}
	}
}

// getRecorder records the names a store serves through Get.
type getRecorder struct {
	cloud.ObjectStore
	mu    sync.Mutex
	names []string
}

func (s *getRecorder) Get(ctx context.Context, name string) ([]byte, error) {
	s.mu.Lock()
	s.names = append(s.names, name)
	s.mu.Unlock()
	return s.ObjectStore.Get(ctx, name)
}

// take returns the names recorded since the last take, sorted.
func (s *getRecorder) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := s.names
	s.names = nil
	sort.Strings(names)
	return names
}

// TestFollowerFirstPollIsColdRecovery: a fresh follower's initial sync
// fetches exactly the objects a cold RecoverAt(-1) fetches on the same
// bucket — even when retention keeps an older dump and the checkpoints
// after it listed, which neither needs.
func TestFollowerFirstPollIsColdRecovery(t *testing.T) {
	params := fastParams()
	params.RetainFor = time.Hour
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	twoDumpsEachFollowed := func() bool {
		dumps, followed := 0, 0
		objs := r.g.View().DBObjects()
		for i, d := range objs {
			if d.Type == core.Dump {
				dumps++
				if i+1 < len(objs) && objs[i+1].Type == core.Checkpoint {
					followed++
				}
			}
		}
		return dumps == 2 && followed == 2
	}
	for round := 0; !twoDumpsEachFollowed(); round++ {
		if round == 20 {
			t.Fatalf("bucket never held two dumps each followed by a checkpoint: %+v", r.g.View().DBObjects())
		}
		rows := 1
		if round%2 == 0 {
			rows = 100
		}
		for i := 0; i < rows; i++ {
			r.put(t, "kv", fmt.Sprintf("row-%03d", i), fmt.Sprintf("gen-%d-%s", round, strings.Repeat("x", 200)))
		}
		if !r.g.Flush(5 * time.Second) {
			t.Fatal("flush")
		}
		if err := r.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !r.g.SyncCheckpoints(5 * time.Second) {
			t.Fatal("checkpoint GC did not settle")
		}
	}
	for i := 0; i < 3; i++ {
		r.put(t, "kv", fmt.Sprintf("tail-%d", i), "wal-only")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}

	ctx := context.Background()
	rec := &getRecorder{ObjectStore: r.store}
	p := params
	p.FollowInterval = time.Hour // only the initial sync
	fol, err := core.NewFollower(vfs.NewMemFS(), rec, r.proc(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Start(ctx); err != nil {
		t.Fatalf("follower start: %v", err)
	}
	warm := rec.take()
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}

	gr, err := core.New(vfs.NewMemFS(), rec, r.proc(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.RecoverAt(ctx, vfs.NewMemFS(), -1); err != nil {
		t.Fatalf("RecoverAt: %v", err)
	}
	cold := rec.take()
	if n := gr.Stats().LastRecovery.Objects; n != len(cold) {
		t.Fatalf("cold recovery counted %d objects but GET %d", n, len(cold))
	}
	t.Logf("follower initial sync GETs %d objects, cold RecoverAt(-1) %d", len(warm), len(cold))
	if strings.Join(warm, "\n") != strings.Join(cold, "\n") {
		t.Fatalf("follower initial sync GET\n%s\ncold recovery GET\n%s", strings.Join(warm, "\n"), strings.Join(cold, "\n"))
	}
}

// TestFollowerStartsBeforeBoot: a follower started on an empty bucket,
// before the primary's Boot, applies nothing; once the primary boots and
// commits it converges, and Promote serves every flushed key.
func TestFollowerStartsBeforeBoot(t *testing.T) {
	params := fastParams()
	store := cloud.NewMemStore()
	p := params
	p.FollowInterval = 2 * time.Millisecond
	fol, err := core.NewFollower(vfs.NewMemFS(), store, dbevent.NewPGProcessor(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Start(context.Background()); err != nil {
		t.Fatalf("follower start on an empty bucket: %v", err)
	}
	t.Cleanup(func() { fol.Close() })
	if s := fol.Stats(); s.AppliedDBObjects != 0 || s.AppliedWALObjects != 0 {
		t.Fatalf("follower applied objects from an empty bucket (stats %+v)", s)
	}

	r := newRig(t, store, params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), "v")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	wal := r.g.View().WALObjects()
	lastTs := wal[len(wal)-1].Ts
	deadline := time.Now().Add(5 * time.Second)
	for s := fol.Stats(); s.AppliedTs < lastTs || s.PendingWAL != 0; s = fol.Stats() {
		if err := fol.Err(); err != nil || time.Now().After(deadline) {
			t.Fatalf("follower never converged on ts %d: %v (stats %+v)", lastTs, err, s)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := fol.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer g2.Close()
	db2, err := minidb.Open(g2.FS(), r.engine(), minidb.Options{})
	if err != nil {
		t.Fatalf("open promoted replica: %v", err)
	}
	for i := 0; i < 20; i++ {
		if v, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil || string(v) != "v" {
			t.Fatalf("k%02d after promote: %q, %v", i, v, err)
		}
	}
}

// maskedStore hides a set of names from List (read-after-write list lag
// in miniature): the follower must behave as if those objects do not
// exist yet, then cope when a later listing reveals them.
type maskedStore struct {
	cloud.ObjectStore
	mu     sync.Mutex
	hidden map[string]bool
}

func (s *maskedStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	infos, err := s.ObjectStore.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cloud.ObjectInfo, 0, len(infos))
	for _, info := range infos {
		if !s.hidden[info.Name] {
			out = append(out, info)
		}
	}
	return out, nil
}

func (s *maskedStore) reveal() {
	s.mu.Lock()
	s.hidden = make(map[string]bool)
	s.mu.Unlock()
}

// TestFollowerLateListedDumpKeepsTailWAL is the out-of-order repair
// regression. The bucket holds dump D, checkpoints C1 < C2 and WAL beyond
// C2, and read-after-write list lag hides one DB object from the
// follower's listings until after its first sync.
//
// C1 hidden: the first sync applies D, C2 and the WAL run. Once C1 is
// listed the plan's DB prefix parts from the replica's after D, so C1, C2
// and the whole run apply again — applying C1 late clobbers the replica
// with older images, and only replaying what came after restores it. The
// watermark never claims WAL the files are not guaranteed to hold, and
// Promote serves every committed write.
//
// D hidden: with no dump listed there is nothing to build on — cold
// recovery would say ErrNoDump, and WAL plus incremental checkpoints with
// no base do not open — so the follower applies nothing until D is listed,
// then converges.
func TestFollowerLateListedDumpKeepsTailWAL(t *testing.T) {
	params := fastParams()
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	checkpoint := func(ckpts *int64) {
		t.Helper()
		if !r.g.Flush(5 * time.Second) {
			t.Fatal("flush")
		}
		if err := r.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		*ckpts++
		if !r.g.SyncCheckpoints(5 * time.Second) {
			t.Fatal("checkpoint GC did not settle")
		}
	}

	// Rewrite the same keys through checkpoints until the 150 % rule
	// produces dump D, then checkpoints C1 and C2 after it...
	var ckpts int64
	for round := 0; round < 40 && r.g.Stats().Dumps == 0; round++ {
		for i := 0; i < 10; i++ {
			r.put(t, "kv", fmt.Sprintf("k%02d", i), fmt.Sprintf("round-%d", round))
		}
		checkpoint(&ckpts)
	}
	for _, v := range []string{"c1", "c2"} {
		for i := 0; i < 10; i += 3 {
			r.put(t, "kv", fmt.Sprintf("k%02d", i), v)
		}
		checkpoint(&ckpts)
	}
	objs := r.g.View().DBObjects()
	if len(objs) != 3 || objs[0].Type != core.Dump || objs[1].Type != core.Checkpoint || objs[2].Type != core.Checkpoint {
		t.Fatalf("bucket holds %+v; the scenario needs exactly dump D and checkpoints C1, C2 after it", objs)
	}

	// ...and tail commits that exist only as WAL objects beyond C2.
	for i := 0; i < 6; i++ {
		r.put(t, "kv", fmt.Sprintf("tail-%d", i), "wal-only")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	wal := r.g.View().WALObjects()
	lastTs := wal[len(wal)-1].Ts

	// The primary crashes here: simply stop touching it. A clean db.Close
	// would run a final checkpoint covering the tail commits, which must
	// stay WAL-only for this scenario. With no further commits the bucket
	// is static from now on.
	ctx := context.Background()
	startMasked := func(hide core.DBObjectInfo) (*core.Follower, *maskedStore) {
		t.Helper()
		masked := &maskedStore{ObjectStore: r.store, hidden: make(map[string]bool)}
		for _, name := range hide.PartNames() {
			masked.hidden[name] = true
		}
		p := params
		p.FollowInterval = 2 * time.Millisecond
		fol, err := core.NewFollower(vfs.NewMemFS(), masked, r.proc(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.Start(ctx); err != nil {
			t.Fatalf("follower start: %v", err)
		}
		t.Cleanup(func() { fol.Close() })
		return fol, masked
	}
	waitFor := func(fol *core.Follower, done func(core.FollowerStats) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s := fol.Stats(); !done(s); s = fol.Stats() {
			if err := fol.Err(); err != nil {
				t.Fatalf("follower tail error: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s (stats %+v)", what, s)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// D hidden: nothing applies, across several polls, until D is listed.
	fol, masked := startMasked(objs[0])
	waitFor(fol, func(s core.FollowerStats) bool { return s.Polls >= 3 }, "follower stopped polling")
	if s := fol.Stats(); s.AppliedDBObjects != 0 || s.AppliedWALObjects != 0 {
		t.Fatalf("follower applied objects with no dump listed (stats %+v)", s)
	}
	masked.reveal()
	waitFor(fol, func(s core.FollowerStats) bool {
		return s.AppliedDBObjects == int64(len(objs)) && s.AppliedTs == lastTs && s.PendingWAL == 0
	}, "follower never converged once the dump was listed")
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}

	// C1 hidden: the first sync applies D, C2 and the tail.
	fol, masked = startMasked(objs[1])
	pre := fol.Stats()
	if pre.AppliedDBObjects != 2 || pre.AppliedWALObjects == 0 || pre.AppliedTs != lastTs {
		t.Fatalf("initial sync did not apply D, C2 and the tail WAL (stats %+v)", pre)
	}
	masked.reveal()
	waitFor(fol, func(s core.FollowerStats) bool {
		return s.AppliedDBObjects > pre.AppliedDBObjects && s.PendingWAL == 0 && s.AppliedTs >= pre.AppliedTs
	}, "late checkpoint never applied")
	// The repair must have replayed the WAL run past the newest re-applied
	// DB object, not just re-applied DB objects.
	if s := fol.Stats(); s.AppliedWALObjects <= pre.AppliedWALObjects {
		t.Fatalf("WAL run not replayed after out-of-order checkpoint repair (before %+v, after %+v)", pre, s)
	}

	g2, err := fol.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer g2.Close()
	db2, err := minidb.Open(g2.FS(), r.engine(), minidb.Options{})
	if err != nil {
		t.Fatalf("open promoted replica: %v", err)
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("round-%d", ckpts-3) // the last round before C1
		if i%3 == 0 {
			want = "c2"
		}
		v, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || string(v) != want {
			t.Fatalf("k%02d after promote: %q, %v (want %q)", i, v, err, want)
		}
	}
	for i := 0; i < 6; i++ {
		v, err := db2.Get("kv", []byte(fmt.Sprintf("tail-%d", i)))
		if err != nil || string(v) != "wal-only" {
			t.Fatalf("tail-%d after promote: %q, %v — WAL run lost by out-of-order repair", i, v, err)
		}
	}
}

// failingListStore makes every LIST fail, so Follower.Start's initial
// sync cannot succeed.
type failingListStore struct{ cloud.ObjectStore }

func (s failingListStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	return nil, errors.New("list down")
}

// TestFollowerStartFailureUnblocksPromoteAndClose pins the failed-Start
// lifecycle: the tail loop never launched, so Promote must report the
// follower as unstarted instead of waiting forever on it, and Close must
// return cleanly.
func TestFollowerStartFailureUnblocksPromoteAndClose(t *testing.T) {
	params := fastParams()
	params.UploadRetries = 2
	fol, err := core.NewFollower(vfs.NewMemFS(), failingListStore{cloud.NewMemStore()}, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Start(context.Background()); err == nil {
		t.Fatal("start succeeded with LIST down")
	}
	done := make(chan error, 1)
	go func() {
		_, err := fol.Promote(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("promote after failed start succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("promote blocked forever after failed start")
	}
	if err := fol.Close(); err != nil {
		t.Fatalf("close after failed start: %v", err)
	}
}

// TestFollowerPromoteUnstarted pins the lifecycle errors.
func TestFollowerPromoteUnstarted(t *testing.T) {
	r := pgRig(t, fastParams())
	fol, err := core.NewFollower(vfs.NewMemFS(), r.store, r.proc(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Promote(context.Background()); err == nil {
		t.Fatal("promote before start succeeded")
	}
	if err := fol.Close(); err != nil {
		t.Fatalf("close unstarted follower: %v", err)
	}
}
