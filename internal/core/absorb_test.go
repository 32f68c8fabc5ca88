package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestCheckpointsAbsorbWhileUploading: the checkpointer keeps at most one
// open checkpoint — finished, not yet taken by the upload loop — and every
// checkpoint that ends while the loop is busy merges into it.
//
//   - Absorb: three checkpoints ending behind a held upload ship as one
//     object under the newest (ts, gen), and leave no per-checkpoint state.
//   - Supersede: a DumpThreshold crossing drops the open checkpoint unsent;
//     the chain element covers it, and closing before the element lands
//     still recovers a consistent prefix.
//   - SupersedeInFlight: a crossing also cancels the checkpoint the loop is
//     uploading; the part that landed is an orphan the element deletes.
//   - Bound: a checkpoint end waits, rather than grow the open checkpoint
//     past CheckpointUploaders × MaxObjectSize, until the loop takes it.
//   - Scrape: absorbs run while the metrics export loops; neither may
//     wait for the other's lock.
func TestCheckpointsAbsorbWhileUploading(t *testing.T) {
	t.Run("Absorb", testAbsorb)
	t.Run("Scrape", testAbsorbScrape)
	for _, v := range []struct {
		name   string
		deltas bool
	}{{"Dumps", false}, {"DeltaCheckpoints", true}} {
		t.Run("Supersede/"+v.name+"/Landed", func(t *testing.T) { testSupersede(t, v.deltas, false) })
		t.Run("Supersede/"+v.name+"/ClosedEarly", func(t *testing.T) { testSupersede(t, v.deltas, true) })
		t.Run("SupersedeInFlight/"+v.name+"/Landed", func(t *testing.T) { testSupersedeInFlight(t, v.deltas, false) })
		t.Run("SupersedeInFlight/"+v.name+"/ClosedEarly", func(t *testing.T) { testSupersedeInFlight(t, v.deltas, true) })
	}
	t.Run("Bound", testAbsorbBound)
}

const (
	absorbPage = 8192
	absorbData = "base/1/16384"
	absorbWAL  = "pg_xlog/000000010000000000000001"
)

// absorbRig is a booted primary on a SimClock whose checkpoints the test
// drives by hand through the intercepting file system.
type absorbRig struct {
	t       *testing.T
	clk     simclock.Clock
	store   *gatedStore
	proc    dbevent.Processor
	localFS vfs.FS
	p       Params
	g       *Ginja
}

// newAbsorbRig boots a primary over one data file of the given page count,
// on a SimClock unless tweak installs another clock.
func newAbsorbRig(t *testing.T, pages int, tweak func(*Params)) *absorbRig {
	t.Helper()
	r := &absorbRig{t: t, store: newGatedStore(),
		proc: dbevent.NewPGProcessor(), localFS: vfs.NewMemFS(), p: DefaultParams()}
	r.p.Metrics = obs.NewRegistry()
	if tweak != nil {
		tweak(&r.p)
	}
	if r.p.Clock == nil {
		r.p.Clock = simclock.NewSim()
	}
	r.clk = r.p.Clock
	r.store.clk = r.clk
	if err := vfs.WriteFile(r.localFS, absorbData, bytes.Repeat([]byte{'0'}, pages*absorbPage)); err != nil {
		t.Fatal(err)
	}
	g, err := New(r.localFS, r.store, r.proc, r.p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	r.g = g
	r.store.puts = nil // the boot dump's
	return r
}

// cycle commits WAL write n, then runs checkpoint n, and returns the
// checkpoint's ts.
func (r *absorbRig) cycle(n int, pages ...int) int64 {
	r.t.Helper()
	if err := vfs.WriteAt(r.g.FS(), absorbWAL, int64(n)*absorbPage, bytes.Repeat([]byte{byte('A' + n)}, 100)); err != nil {
		r.t.Fatal(err)
	}
	if !r.g.Flush(time.Minute) {
		r.t.Fatalf("cycle %d: WAL flush", n)
	}
	ts := r.g.view.LastWALTs()
	if err := r.checkpoint(n, pages...); err != nil {
		r.t.Fatalf("checkpoint %d: %v", n, err)
	}
	return ts
}

// checkpoint runs checkpoint n: a pg_clog write opens it, the given data
// pages are rewritten with bytes unique to n and the pg_control write
// ends it.
func (r *absorbRig) checkpoint(n int, pages ...int) error {
	fill := func(size int) []byte { return bytes.Repeat([]byte{byte('a' + n)}, size) }
	if err := vfs.WriteAt(r.g.FS(), "pg_clog/0000", 0, fill(256)); err != nil {
		return err
	}
	for _, pg := range pages {
		if err := vfs.WriteAt(r.g.FS(), absorbData, int64(pg)*absorbPage, fill(absorbPage)); err != nil {
			return err
		}
	}
	return vfs.WriteAt(r.g.FS(), "global/pg_control", 0, fill(28))
}

// files snapshots every file of fs whose kind is kind.
func (r *absorbRig) files(fs vfs.FS, kind dbevent.Kind) map[string][]byte {
	r.t.Helper()
	paths, err := vfs.Walk(fs, "")
	if err != nil {
		r.t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		if r.proc.FileKind(p) != kind {
			continue
		}
		if out[p], err = vfs.ReadFile(fs, p); err != nil {
			r.t.Fatal(err)
		}
	}
	return out
}

// recover restores the bucket on a fresh machine.
func (r *absorbRig) recover() vfs.FS {
	r.t.Helper()
	fs := vfs.NewMemFS()
	p := r.p
	p.Metrics = nil
	g, err := New(fs, r.store, r.proc, p)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := g.Recover(context.Background()); err != nil {
		r.t.Fatalf("Recover: %v", err)
	}
	g.Close()
	return fs
}

// sameData fails unless the data files of got are exactly want.
func (r *absorbRig) sameData(got vfs.FS, want map[string][]byte) {
	r.t.Helper()
	have := r.files(got, dbevent.KindData)
	if len(have) != len(want) {
		r.t.Fatalf("recovered %d data files, want %d", len(have), len(want))
	}
	for p, b := range want {
		if !bytes.Equal(have[p], b) {
			r.t.Fatalf("recovered %s differs", p)
		}
	}
}

// putDBObjects lists the DB objects the store was asked to PUT since
// Boot, one DBName (its final part) per object.
func (r *absorbRig) putDBObjects() []DBName {
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	var out []DBName
	for _, name := range r.store.puts {
		n, err := ParseDBObjectName(name)
		if err == nil && (n.Part < 0 || n.Count > 0) {
			out = append(out, n)
		}
	}
	return out
}

// reservations counts the generations the view holds for objects that have
// not landed.
func (r *absorbRig) reservations() int {
	r.g.view.mu.Lock()
	defer r.g.view.mu.Unlock()
	return len(r.g.view.reserved)
}

// elemInFlight reads the queue state: a chain element is queued or
// uploading and has not landed.
func (r *absorbRig) elemInFlight() bool {
	r.g.ckpt.qMu.Lock()
	defer r.g.ckpt.qMu.Unlock()
	return r.g.ckpt.q.elemInFlight()
}

func (r *absorbRig) absorbedMetric(into string) float64 {
	return r.p.Metrics.Counter(metricCkptAbsorbed, "", obs.Labels{"into": into}).Value()
}

func testAbsorb(t *testing.T) {
	r := newAbsorbRig(t, 64, nil)
	release := r.store.block("_checkpoint_")
	ts1 := r.cycle(1, 0, 1)
	if r.g.SyncCheckpoints(time.Second) || r.store.heldPuts() != 1 {
		t.Fatalf("checkpoint 1 is not held in its PUT (%d held)", r.store.heldPuts())
	}
	r.cycle(2, 1, 2)
	r.cycle(3, 2, 3)
	ts4 := r.cycle(4, 3, 4)
	reserved := r.reservations()
	if reserved != 2 {
		t.Fatalf("%d generation reservations with one checkpoint uploading and one open, want 2", reserved)
	}
	simclock.Close(r.clk, release)
	if !r.g.SyncCheckpoints(time.Minute) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}

	var ckpts []DBName
	for _, n := range r.putDBObjects() {
		if n.Type == Checkpoint {
			ckpts = append(ckpts, n)
		}
	}
	if len(ckpts) != 2 || ckpts[0].Ts != ts1 || ckpts[1].Ts != ts4 || ckpts[1].Gen != 0 {
		t.Fatalf("checkpoint PUTs %+v, want ts %d then one at the newest (ts %d, gen 0)", ckpts, ts1, ts4)
	}
	s := r.g.Stats()
	if s.Checkpoints != 2 || s.CheckpointsAbsorbed != 2 || r.absorbedMetric("checkpoint") != 2 {
		t.Fatalf("stats %+v, absorbed metric %v: want 2 checkpoints uploaded and 2 absorbed",
			s, r.absorbedMetric("checkpoint"))
	}
	if s.CheckpointBytesBuffered != 0 {
		t.Fatalf("%d bytes still buffered after the queue settled", s.CheckpointBytesBuffered)
	}
	reserved = r.reservations()
	if reserved != 0 {
		t.Fatalf("%d generation reservations outlive the uploads", reserved)
	}

	// The WAL the merged checkpoint covers is deleted, once each.
	var wal int
	r.store.mu.Lock()
	for _, name := range r.store.puts {
		if ts, _, _, err := ParseWALObjectName(name); err == nil && ts <= ts4 {
			wal++
			if r.store.deleted[name] != 1 {
				t.Errorf("WAL object %s deleted %d times, want once", name, r.store.deleted[name])
			}
		}
	}
	r.store.mu.Unlock()
	if wal < 4 {
		t.Fatalf("%d WAL objects at or below ts %d, want one per cycle", wal, ts4)
	}
	for _, w := range r.g.view.WALObjects() {
		if w.Ts <= ts4 {
			t.Fatalf("WAL object at ts %d survived the checkpoint at ts %d", w.Ts, ts4)
		}
	}
	r.sameData(r.recover(), r.files(r.localFS, dbevent.KindData))
}

// testSupersede ends checkpoint 2 behind a held upload, then checkpoint 3,
// which crosses the DumpThreshold only once merged with the open
// checkpoint 2 (16-page database: 40 KiB open plus 56 KiB rewriting two of
// its pages). The chain element must drop checkpoint 2 unsent. Checkpoint
// 4 ends while the element uploads and opens behind it: merged across the
// element instead, it would land pages 3 and 4 of cycle 2 after cycle 3's.
func testSupersede(t *testing.T, deltas, closeEarly bool) {
	r := newAbsorbRig(t, 16, func(p *Params) {
		p.DeltaCheckpoints = deltas
		p.DeltaCompactRatio = 1 // the 80 KiB delta must not fold into a dump
	})
	elem := Dump
	if deltas {
		elem = Delta
	}
	ckptGate := r.store.block("_checkpoint_")
	elemGate := r.store.block("_" + string(elem) + "_")
	ts1 := r.cycle(1, 0)
	if r.g.SyncCheckpoints(time.Second) || r.store.heldPuts() != 1 {
		t.Fatalf("checkpoint 1 is not held in its PUT (%d held)", r.store.heldPuts())
	}
	atCkpt1 := r.files(r.localFS, dbevent.KindData)
	r.cycle(2, 0, 1, 2, 3, 4)
	if s := r.g.Stats(); s.Dumps+s.Deltas != 0 || r.elemInFlight() {
		t.Fatalf("checkpoint 2 alone crossed the threshold (stats %+v)", s)
	}
	ts3 := r.cycle(3, 3, 4, 5, 6, 7, 8, 9)
	if !r.elemInFlight() {
		t.Fatal("checkpoints 2 and 3 together did not cross the threshold")
	}
	if s := r.g.Stats(); s.CheckpointsAbsorbed != 1 || r.absorbedMetric(string(elem)) != 1 {
		t.Fatalf("stats %+v, absorbed metric %v: want the open checkpoint superseded by the %s",
			s, r.absorbedMetric(string(elem)), elem)
	}
	// Checkpoint 1 lands and the element's reads release the dump gate; its
	// PUT is held.
	simclock.Close(r.clk, ckptGate)
	if r.g.SyncCheckpoints(time.Second) || r.store.heldPuts() != 2 {
		t.Fatalf("%d PUTs met a gate, want checkpoint 1's and the %s's: nothing else may be uploaded",
			r.store.heldPuts(), elem)
	}
	ts4 := r.cycle(4, 12, 13)

	if closeEarly {
		// The element never lands. Every WAL write after checkpoint 1 is
		// still in the bucket, so recovery loses nothing.
		r.g.Close()
		rec := r.recover()
		r.sameData(rec, atCkpt1)
		log, err := vfs.ReadFile(rec, absorbWAL)
		if err != nil {
			t.Fatal(err)
		}
		for n := 2; n <= 4; n++ {
			want := bytes.Repeat([]byte{byte('A' + n)}, 100)
			if off := n * absorbPage; len(log) < off+100 || !bytes.Equal(log[off:off+100], want) {
				t.Fatalf("recovered WAL lost cycle %d's commit", n)
			}
		}
		return
	}

	simclock.Close(r.clk, elemGate)
	if !r.g.SyncCheckpoints(time.Minute) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}
	var got []string
	for _, n := range r.putDBObjects() {
		got = append(got, n.String())
		switch {
		case n.Type == Checkpoint && n.Ts != ts1 && n.Ts != ts4:
			t.Fatalf("superseded checkpoint reached the store as %s", n)
		case n.Type == elem && n.Ts != ts3:
			t.Fatalf("%s at ts %d, want the crossing's ts %d", elem, n.Ts, ts3)
		}
	}
	if len(got) != 3 {
		t.Fatalf("PUT DB objects %v, want checkpoint 1, the %s and checkpoint 4", strings.Join(got, " "), elem)
	}
	if s := r.g.Stats(); s.Checkpoints != 2 || s.Dumps+s.Deltas != 1 || s.CheckpointBytesBuffered != 0 {
		t.Fatalf("stats %+v: want 2 checkpoints, one %s and nothing buffered", s, elem)
	}
	r.sameData(r.recover(), r.files(r.localFS, dbevent.KindData))
}

// testSupersedeInFlight lands checkpoint 1, then holds the ack of
// checkpoint 2's first part: the part is stored, its PUT does not return.
// Checkpoint 3 crosses the DumpThreshold on its own (ten of the sixteen
// pages), so the chain element must cancel checkpoint 2's upload: the held
// PUT returns the cancel error, part 1 is never PUT, and part 0 becomes an
// orphan. A sync started before the crossing waits for the element. Landed,
// the element's sweep deletes the orphan; closed before it lands, the
// bucket recovers checkpoint 1 plus WAL, and the next incarnation's first
// dump deletes the orphan LoadFromList finds.
func testSupersedeInFlight(t *testing.T, deltas, closeEarly bool) {
	r := newAbsorbRig(t, 16, func(p *Params) {
		p.DeltaCheckpoints = deltas
		p.DeltaCompactRatio = 1 // the 104 KiB delta must not fold into a dump
		p.CheckpointUploaders = 1
		p.MaxObjectSize = 16 << 10 // checkpoint 2's two pages take two parts
	})
	elem := Dump
	if deltas {
		elem = Delta
	}
	r.cycle(1, 0)
	if !r.g.SyncCheckpoints(time.Minute) {
		t.Fatalf("checkpoint 1 did not land (err %v)", r.g.Err())
	}
	atCkpt1 := r.files(r.localFS, dbevent.KindData)
	ackGate := r.store.holdAck("_checkpoint_")
	elemGate := r.store.block("_" + string(elem) + "_")
	ts2 := r.cycle(2, 1, 2)
	if r.g.SyncCheckpoints(time.Second) || r.store.heldPuts() != 1 {
		t.Fatalf("checkpoint 2 is not held in its first PUT (%d held)", r.store.heldPuts())
	}
	var synced, landed atomic.Bool
	waiter := simclock.NewGroup(r.clk)
	waiter.Go(func() {
		ok := r.g.SyncCheckpoints(time.Hour)
		s := r.g.Stats()
		landed.Store(ok && s.Dumps+s.Deltas == 1)
		synced.Store(true)
	})
	r.clk.Sleep(time.Second) // the sync takes its target: checkpoint 2
	r.cycle(3, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	if !r.elemInFlight() {
		t.Fatal("checkpoint 3 did not cross the threshold")
	}
	if r.g.SyncCheckpoints(time.Second) || r.store.heldPuts() != 2 {
		t.Fatalf("%d PUTs met a gate, want checkpoint 2's first and the %s's", r.store.heldPuts(), elem)
	}
	simclock.Close(r.clk, ackGate)
	r.store.mu.Lock()
	ackErrs := slices.Clone(r.store.ackErrs)
	var part0 string
	for _, name := range r.store.puts {
		if n, err := ParseDBObjectName(name); err == nil && n.Ts == ts2 && n.Type == Checkpoint {
			if n.Part != 0 {
				t.Errorf("checkpoint 2 reached the store as %s after the crossing", name)
			}
			part0 = name
		}
	}
	r.store.mu.Unlock()
	if len(ackErrs) != 1 || !errors.Is(ackErrs[0], context.Canceled) || part0 == "" {
		t.Fatalf("held PUT of checkpoint 2's part 0 (%q) returned %v, want the cancel error", part0, ackErrs)
	}
	if s := r.g.Stats(); s.Checkpoints != 1 || s.CheckpointsAbsorbed != 1 || r.absorbedMetric(string(elem)) != 1 {
		t.Fatalf("stats %+v, absorbed metric %v: want checkpoint 2 superseded by the %s, not uploaded",
			s, r.absorbedMetric(string(elem)), elem)
	}
	if synced.Load() {
		t.Fatalf("a sync started before the crossing returned before the %s landed", elem)
	}
	if closeEarly {
		r.g.Close()
		waiter.Wait()
		simclock.Close(r.clk, elemGate)
		r.closedEarly(atCkpt1, part0, ts2)
		return
	}

	simclock.Close(r.clk, elemGate)
	waiter.Wait()
	if !landed.Load() {
		t.Fatalf("the sync started before the crossing failed or returned before the %s landed", elem)
	}
	r.noObjectAt(ts2, part0)
	reserved := r.reservations()
	if s := r.g.Stats(); reserved != 0 || s.Checkpoints != 1 || s.CheckpointBytesBuffered != 0 {
		t.Fatalf("stats %+v, %d generation reservations: want checkpoint 1 alone uploaded and nothing left", s, reserved)
	}
	r.sameData(r.recover(), r.files(r.localFS, dbevent.KindData))
}

// closedEarly checks a bucket whose chain element never landed: recovery
// and Verify both yield checkpoint 1 plus every later WAL write, and after
// Reboot the first dump deletes the superseded checkpoint's part.
func (r *absorbRig) closedEarly(atCkpt1 map[string][]byte, part0 string, ts2 int64) {
	r.t.Helper()
	sameLog := func(fs vfs.FS) {
		log, err := vfs.ReadFile(fs, absorbWAL)
		if err != nil {
			r.t.Fatal(err)
		}
		for n := 2; n <= 3; n++ {
			want := bytes.Repeat([]byte{byte('A' + n)}, 100)
			if off := n * absorbPage; len(log) < off+100 || !bytes.Equal(log[off:off+100], want) {
				r.t.Fatalf("recovered WAL lost cycle %d's commit", n)
			}
		}
	}
	rec := r.recover()
	r.sameData(rec, atCkpt1)
	sameLog(rec)
	p := r.p
	p.Metrics = nil
	gv, err := New(vfs.NewMemFS(), r.store, r.proc, p)
	if err != nil {
		r.t.Fatal(err)
	}
	target := vfs.NewMemFS()
	if _, err := gv.Verify(context.Background(), target, nil, nil); err != nil {
		r.t.Fatalf("Verify: %v", err)
	}
	r.sameData(target, atCkpt1)
	sameLog(target)

	g, err := New(r.localFS, r.store, r.proc, p)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := g.Reboot(context.Background()); err != nil {
		r.t.Fatalf("Reboot: %v", err)
	}
	r.t.Cleanup(func() { g.Close() })
	if orphans := g.view.OrphanParts(); len(orphans) != 1 || orphans[0].Name != part0 {
		r.t.Fatalf("Reboot found orphans %+v, want %s", orphans, part0)
	}
	r.g = g
	r.cycle(4, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	if !g.SyncCheckpoints(time.Minute) {
		r.t.Fatalf("checkpoint queue did not settle (err %v)", g.Err())
	}
	if s := g.Stats(); s.Dumps != 1 {
		r.t.Fatalf("stats %+v: the rebooted crossing must dump", s)
	}
	r.noObjectAt(ts2, part0)
	r.sameData(r.recover(), r.files(r.localFS, dbevent.KindData))
}

// noObjectAt fails unless the superseded checkpoint's part was deleted,
// once, and the bucket holds no object at its ts.
func (r *absorbRig) noObjectAt(ts int64, part0 string) {
	r.t.Helper()
	infos, err := r.store.List(context.Background(), "")
	if err != nil {
		r.t.Fatal(err)
	}
	for _, info := range infos {
		if n, err := ParseDBObjectName(info.Name); err == nil && n.Ts == ts {
			r.t.Fatalf("%s outlived the chain element that superseded it", info.Name)
		}
	}
	r.store.mu.Lock()
	deleted := r.store.deleted[part0]
	r.store.mu.Unlock()
	if deleted != 1 {
		r.t.Fatalf("orphan %s deleted %d times, want once", part0, deleted)
	}
}

func testAbsorbBound(t *testing.T) {
	r := newAbsorbRig(t, 64, func(p *Params) {
		p.CheckpointUploaders = 1
		p.MaxObjectSize = 32 << 10
	})
	release := r.store.block("_checkpoint_")
	r.cycle(1, 0)
	if r.g.SyncCheckpoints(time.Second) || r.store.heldPuts() != 1 {
		t.Fatalf("checkpoint 1 is not held in its PUT (%d held)", r.store.heldPuts())
	}
	r.cycle(2, 1, 2, 3) // 24 KiB open: inside the 32 KiB window
	var ended atomic.Bool
	dbms := simclock.NewGroup(r.clk)
	dbms.Go(func() { // 48 KiB merged: over the window
		if err := r.checkpoint(3, 4, 5, 6); err != nil {
			t.Error(err)
		}
		ended.Store(true)
	})
	r.clk.Sleep(time.Minute)
	if ended.Load() {
		t.Fatal("checkpoint 3 ended without waiting for the open checkpoint to leave")
	}
	simclock.Close(r.clk, release)
	dbms.Wait()
	if !r.g.SyncCheckpoints(time.Minute) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}
	if s := r.g.Stats(); s.Checkpoints != 3 || s.CheckpointsAbsorbed != 0 {
		t.Fatalf("stats %+v: want three checkpoints, none absorbed", s)
	}
	r.sameData(r.recover(), r.files(r.localFS, dbevent.KindData))
}

// testAbsorbScrape absorbs checkpoints while another goroutine exports the
// metrics in a loop. The export holds the registry's lock while it samples
// the queue-depth gauge, so an absorb that reached the registry under the
// queue lock would deadlock the two (the test would hang). A SimClock runs
// one goroutine at a time, so this subtest runs on the wall clock.
func testAbsorbScrape(t *testing.T) {
	r := newAbsorbRig(t, 64, func(p *Params) { p.Clock = simclock.Real() })
	release := r.store.block("_checkpoint_")
	var stop atomic.Bool
	var scrapes atomic.Int64
	scraper := simclock.NewGroup(r.clk)
	scraper.Go(func() {
		for !stop.Load() {
			if err := r.p.Metrics.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			scrapes.Add(1)
		}
	})
	for scrapes.Load() == 0 {
		runtime.Gosched()
	}
	// At least 60 ends, and at least 20 whole exports beside them. The
	// first checkpoint the loop takes is held; every later one absorbs.
	ends := 0
	for from := scrapes.Load(); ends < 60 || scrapes.Load()-from < 20; {
		if ends++; ends > 100000 {
			t.Fatal("the export loop stalled")
		}
		if err := r.checkpoint(ends, ends%8, (ends+1)%8); err != nil {
			t.Fatalf("checkpoint %d: %v", ends, err)
		}
	}
	stop.Store(true)
	scraper.Wait()
	simclock.Close(r.clk, release)
	if !r.g.SyncCheckpoints(time.Minute) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}
	s := r.g.Stats()
	if s.Checkpoints > 2 || s.Checkpoints+s.CheckpointsAbsorbed != int64(ends) ||
		r.absorbedMetric("checkpoint") != float64(s.CheckpointsAbsorbed) {
		t.Fatalf("stats %+v after %d checkpoint ends: want at most 2 uploaded, the rest absorbed", s, ends)
	}
	t.Logf("%d exports ran beside %d absorbs", scrapes.Load(), s.CheckpointsAbsorbed)
	r.sameData(r.recover(), r.files(r.localFS, dbevent.KindData))
}
