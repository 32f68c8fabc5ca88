package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestOneChainElementPerCrossing: one DumpThreshold crossing plans one
// chain element. The view learns of a dump (or delta) only once all its
// parts are durable, so the checkpoint that ends while the element is
// still uploading sees the same cloud total the crossing saw. It must
// ship as an ordinary checkpoint — not plan a second full dump, nor chain
// a second delta onto the one in flight — and the element's landing must
// delete the chain it supersedes exactly once and leave a bucket that
// recovers to the primary's bytes.
func TestOneChainElementPerCrossing(t *testing.T) {
	t.Run("Dumps", func(t *testing.T) { testOneChainElementPerCrossing(t, false) })
	t.Run("DeltaCheckpoints", func(t *testing.T) { testOneChainElementPerCrossing(t, true) })
}

func testOneChainElementPerCrossing(t *testing.T, deltas bool) {
	const (
		page     = 8192
		pages    = 16 // a 128 KiB data file
		dataFile = "base/1/16384"
		walFile  = "pg_xlog/000000010000000000000001"
	)
	elem, held := Dump, "_dump_"
	if deltas {
		elem, held = Delta, "_delta_"
	}
	clk := simclock.NewSim()
	store := newGatedStore()
	store.clk = clk
	p := DefaultParams()
	p.Clock = clk
	p.DeltaCheckpoints = deltas
	proc := dbevent.NewPGProcessor()
	localFS := vfs.NewMemFS()
	if err := vfs.WriteFile(localFS, dataFile, bytes.Repeat([]byte{'0'}, pages*page)); err != nil {
		t.Fatal(err)
	}
	g, err := New(localFS, store, proc, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// One cycle is a commit, then a checkpoint: a pg_clog write opens it,
	// three data pages are rewritten and the pg_control write ends it. The
	// boot dump plus 24 KiB per cycle reaches 1.5 × the 128 KiB database
	// after a few cycles.
	write := func(path string, off int64, data []byte) {
		t.Helper()
		if err := vfs.WriteAt(g.FS(), path, off, data); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func(n int) {
		t.Helper()
		write(walFile, int64(n)*page, bytes.Repeat([]byte{'w'}, 100))
		if !g.Flush(time.Minute) {
			t.Fatalf("cycle %d: WAL flush", n)
		}
		write("pg_clog/0000", 0, bytes.Repeat([]byte{byte('a' + n)}, 256))
		for i := 0; i < 3; i++ {
			write(dataFile, int64(i)*page, bytes.Repeat([]byte{byte('a' + n)}, page))
		}
		write("global/pg_control", 0, bytes.Repeat([]byte{byte('a' + n)}, 28))
	}

	// Cycle until a crossing plans the element; its parts are held, so the
	// checkpoint queue cannot settle.
	release := store.block(held)
	n := 0
	for store.heldPuts() == 0 {
		if n++; n > 8 {
			t.Fatalf("no %s planned after %d cycles (stats %+v)", elem, n-1, g.Stats())
		}
		cycle(n)
		if settled := g.SyncCheckpoints(time.Second); settled != (store.heldPuts() == 0) {
			t.Fatalf("cycle %d: queue settled %v with %d held PUTs", n, settled, store.heldPuts())
		}
	}
	if n < 2 {
		t.Fatalf("the first cycle already crossed: no checkpoint for the %s to supersede", elem)
	}
	// What the element will supersede: a dump everything before it, a
	// delta the checkpoints since its base (the boot dump).
	var superseded []DBObjectInfo
	for _, d := range g.view.DBObjects() {
		if elem == Dump || d.Type == Checkpoint {
			superseded = append(superseded, d)
		}
	}

	// The next checkpoint ends while the element is still uploading, and
	// the cloud total it sees crosses the threshold again.
	cycle(n + 1)
	if s := g.Stats(); s.Dumps+s.Deltas != 0 || store.heldPuts() != 1 {
		t.Fatalf("the %s landed before the second checkpoint ended (stats %+v, %d held)", elem, s, store.heldPuts())
	}
	simclock.Close(clk, release)
	if !g.SyncCheckpoints(time.Minute) {
		t.Fatalf("checkpoint queue did not settle (err %v)", g.Err())
	}

	s := g.Stats()
	if elem == Dump && (s.Dumps != 1 || s.Deltas != 0) || elem == Delta && (s.Deltas != 1 || s.Dumps != 0) {
		t.Fatalf("one crossing planned %d dumps and %d deltas, want one %s", s.Dumps, s.Deltas, elem)
	}
	if s.Checkpoints != int64(n) {
		t.Fatalf("%d checkpoints uploaded, want %d: the deferred crossing must ship as one", s.Checkpoints, n)
	}
	objs := g.view.DBObjects()
	if len(objs) < 2 || objs[len(objs)-2].Type != elem || objs[len(objs)-1].Type != Checkpoint {
		t.Fatalf("bucket holds %+v, want the %s followed by one checkpoint", objs, elem)
	}
	if deltas && g.ckpt.deltaChainLen() != 1 {
		t.Fatalf("delta chain length %d, want 1: a second delta was chained onto the first", g.ckpt.deltaChainLen())
	}

	// The superseded chain is deleted once, and nothing else is.
	want := map[string]bool{}
	for _, d := range superseded {
		for _, name := range d.PartNames() {
			want[name] = true
		}
	}
	store.mu.Lock()
	for name, times := range store.deleted {
		if strings.HasPrefix(name, dbPrefix) && (!want[name] || times != 1) {
			t.Errorf("DB part %s deleted %d times, want superseded ones once and no others", name, times)
		}
	}
	for name := range want {
		if store.deleted[name] != 1 {
			t.Errorf("superseded DB part %s deleted %d times, want once", name, store.deleted[name])
		}
	}
	store.mu.Unlock()
	if s.DBObjectsDeleted != int64(len(superseded)) {
		t.Fatalf("%d DB objects deleted, want the %d superseded ones", s.DBObjectsDeleted, len(superseded))
	}

	// Recovery on a fresh machine is byte-identical to the primary.
	recovered := vfs.NewMemFS()
	g2, err := New(recovered, store, proc, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer g2.Close()
	files, err := vfs.Walk(localFS, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if proc.FileKind(path) != dbevent.KindData {
			continue
		}
		want, err := vfs.ReadFile(localFS, path)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := vfs.ReadFile(recovered, path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("recovered %s differs from the primary (read error %v)", path, err)
		}
	}

	// The landing re-arms the rule: a later crossing plans the next element.
	for i := n + 2; s.Dumps+s.Deltas < 2; i++ {
		if i > n+8 {
			t.Fatalf("no crossing after the %s landed (stats %+v)", elem, s)
		}
		cycle(i)
		if !g.SyncCheckpoints(time.Minute) {
			t.Fatalf("cycle %d: checkpoint queue did not settle (err %v)", i, g.Err())
		}
		s = g.Stats()
	}
}
