package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/sealer"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestMultiSegmentBodiesThroughEveryReadPath takes DB objects whose sealed
// body spans several of the sealer's 1 MiB compression segments — Boot's
// dump, an incremental checkpoint, a threshold dump — through every reader
// of the format under Compress+Encrypt: Recover into an empty file system
// is byte-identical to the primary, Verify is clean, and a Follower that
// tailed the bucket holds the same bytes.
func TestMultiSegmentBodiesThroughEveryReadPath(t *testing.T) {
	const (
		page     = 8192
		pages    = 512 // a 4 MiB data file: four segments per full pass
		dataFile = "base/1/16384"
	)
	params := fastParams()
	params.Compress, params.Encrypt, params.Password = true, true, "segments"
	proc := dbevent.NewPGProcessor()
	rng := rand.New(rand.NewSource(7))
	rowPage := func() []byte { // JSON-like rows: compressible, never repeating
		var b bytes.Buffer
		for b.Len() < page {
			fmt.Fprintf(&b, `{"id":%d,"qty":%d,"name":"item-%x"},`, rng.Int63(), rng.Intn(100), rng.Int31())
		}
		return b.Bytes()[:page]
	}

	localFS, store := vfs.NewMemFS(), cloud.NewMemStore()
	var tree bytes.Buffer
	for i := 0; i < pages; i++ {
		tree.Write(rowPage())
	}
	if err := vfs.WriteFile(localFS, dataFile, tree.Bytes()); err != nil {
		t.Fatal(err)
	}
	g, err := core.New(localFS, store, proc, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	defer g.Close()

	params.FollowInterval = 2 * time.Millisecond
	followerFS := vfs.NewMemFS()
	fol, err := core.NewFollower(followerFS, store, proc, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Start(context.Background()); err != nil {
		t.Fatalf("follower start: %v", err)
	}
	defer fol.Close()

	// Checkpoint cycles through the intercepted FS, each rewriting 7/8 of
	// the data file's pages (3.5 MiB, four segments), until the 150 % rule
	// turns one into a dump.
	write := func(path string, off int64, data []byte) {
		t.Helper()
		f, err := g.FS().OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 1; g.Stats().Dumps == 0; cycle++ {
		if cycle > 8 {
			t.Fatalf("no threshold dump after %d checkpoint cycles (stats %+v)", cycle-1, g.Stats())
		}
		write("pg_clog/0000", 0, rowPage()[:256])
		for i := 0; i < pages; i++ {
			if i%8 != 0 {
				write(dataFile, int64(i)*page, rowPage())
			}
		}
		write("global/pg_control", 0, rowPage()[:28])
		if !g.SyncCheckpoints(10 * time.Second) {
			t.Fatalf("cycle %d: checkpoint never settled (err %v)", cycle, g.Err())
		}
	}
	if s := g.Stats(); s.Checkpoints == 0 {
		t.Fatalf("the first cycle already dumped: no incremental checkpoint was exercised (stats %+v)", s)
	}

	// The premise: the bucket really holds multi-segment bodies.
	seal, err := sealer.New(sealer.Options{Compress: true, Encrypt: true, Password: params.Password})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := store.List(context.Background(), "DB/")
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, info := range infos {
		env, err := store.Get(context.Background(), info.Name)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := seal.Open(env)
		if err != nil {
			t.Fatalf("open %s: %v", info.Name, err)
		}
		if len(payload) >= 3<<20 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("no DB object of three or more segments in the bucket: %+v", infos)
	}

	sameAsPrimary := func(other vfs.FS) error {
		files, err := vfs.Walk(localFS, "")
		if err != nil {
			return err
		}
		for _, p := range files {
			if proc.FileKind(p) != dbevent.KindData {
				continue
			}
			want, err := vfs.ReadFile(localFS, p)
			if err != nil {
				return err
			}
			if got, err := vfs.ReadFile(other, p); err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("%s differs from the primary (read error: %v)", p, err)
			}
		}
		return nil
	}

	recoveredFS := vfs.NewMemFS()
	g2, err := core.New(recoveredFS, store, proc, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer g2.Close()
	if err := sameAsPrimary(recoveredFS); err != nil {
		t.Fatalf("recovered tree: %v", err)
	}

	gv, err := core.New(vfs.NewMemFS(), store, proc, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gv.Verify(context.Background(), vfs.NewMemFS(), sameAsPrimary, nil)
	if err != nil || !res.RestartOK || res.ObjectsChecked == 0 {
		t.Fatalf("Verify: %+v, %v", res, err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for sameAsPrimary(followerFS) != nil {
		if err := fol.Err(); err != nil || time.Now().After(deadline) {
			t.Fatalf("follower never converged: %v (tail error %v, stats %+v)", sameAsPrimary(followerFS), err, fol.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
