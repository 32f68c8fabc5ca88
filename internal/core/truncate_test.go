package core

import (
	"os"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// TestTruncateWaitsForDumpReads: a truncate of a data file that a
// multi-part dump still has to read waits on the dump gate like a write.
// Let through, it would shrink the file under the dump's next part, whose
// read comes up short and stops replication. Recovery returns the bytes
// at the dump's cut point, and the next chain element carries the
// truncate.
func TestTruncateWaitsForDumpReads(t *testing.T) {
	const cut = 64 << 10
	r := newAbsorbRig(t, 64, func(p *Params) { // a 512 KiB data file
		p.CheckpointUploaders = 1
		p.MaxObjectSize = 64 << 10
	})
	release := r.store.block("_dump_")
	n := 0
	for r.store.heldPuts() == 0 {
		if n++; n > 8 {
			t.Fatalf("no dump planned after %d cycles (stats %+v)", n-1, r.g.Stats())
		}
		r.cycle(n, 0, 1, 2, 3, 4, 5, 6, 7)
		r.g.SyncCheckpoints(time.Second)
	}
	atCut := r.files(r.localFS, dbevent.KindData)

	var truncated bool
	dbms := simclock.NewGroup(r.clk)
	dbms.Go(func() {
		f, err := r.g.FS().OpenFile(absorbData, os.O_RDWR, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		if err := f.Truncate(cut); err != nil {
			t.Error(err)
		}
		truncated = true
	})
	r.clk.Sleep(time.Minute)
	if truncated {
		t.Error("the truncate did not wait for the dump's reads")
	}
	simclock.Close(r.clk, release)
	dbms.Wait()
	if !r.g.SyncCheckpoints(time.Minute) || r.g.Err() != nil {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}
	if s := r.g.Stats(); s.Dumps != 1 {
		t.Fatalf("stats %+v, want one dump", s)
	}
	r.sameData(r.recover(), atCut)

	for s := r.g.Stats(); s.Dumps < 2; s = r.g.Stats() {
		if n++; n > 16 {
			t.Fatalf("no dump after the truncate (stats %+v)", s)
		}
		r.cycle(n, 0, 1)
		if !r.g.SyncCheckpoints(time.Minute) {
			t.Fatalf("cycle %d: checkpoint queue did not settle (err %v)", n, r.g.Err())
		}
	}
	now := r.files(r.localFS, dbevent.KindData)
	if len(now[absorbData]) != cut {
		t.Fatalf("%s is %d bytes locally, want %d", absorbData, len(now[absorbData]), cut)
	}
	r.sameData(r.recover(), now)
}

// TestRenameWaitsForDumpReads is the rename twin: renaming a data file
// that a held multi-part dump still has to read waits on the dump gate,
// as a truncate does. Let through, the dump's next part found the file
// gone and stopped the instance ("open base/1/16384: file does not
// exist"). Renames are not replicated yet, so the rename is undone before
// the next checkpoint; recovery returns the bytes at the dump's cut.
func TestRenameWaitsForDumpReads(t *testing.T) {
	r := newAbsorbRig(t, 64, func(p *Params) { // a 512 KiB data file
		p.CheckpointUploaders = 1
		p.MaxObjectSize = 64 << 10
	})
	release := r.store.block("_dump_")
	n := 0
	for r.store.heldPuts() == 0 {
		if n++; n > 8 {
			t.Fatalf("no dump planned after %d cycles (stats %+v)", n-1, r.g.Stats())
		}
		r.cycle(n, 0, 1, 2, 3, 4, 5, 6, 7)
		r.g.SyncCheckpoints(time.Second)
	}
	atCut := r.files(r.localFS, dbevent.KindData)

	const moved = absorbData + ".moved"
	var renamed bool
	dbms := simclock.NewGroup(r.clk)
	dbms.Go(func() {
		if err := r.g.FS().Rename(absorbData, moved); err != nil {
			t.Error(err)
		}
		renamed = true
	})
	r.clk.Sleep(time.Minute)
	if renamed {
		t.Error("the rename did not wait for the dump's reads")
	}
	simclock.Close(r.clk, release)
	dbms.Wait()
	if !r.g.SyncCheckpoints(time.Minute) || r.g.Err() != nil {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}
	if s := r.g.Stats(); s.Dumps != 1 {
		t.Fatalf("stats %+v, want one dump", s)
	}
	if err := r.g.FS().Rename(moved, absorbData); err != nil {
		t.Fatal(err)
	}
	r.sameData(r.recover(), atCut)
}
