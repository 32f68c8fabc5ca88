package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// bootStore records every PUT; a non-nil walErr fails each WAL PUT with it
// after walDelay.
type bootStore struct {
	cloud.ObjectStore
	walDelay time.Duration
	walErr   error

	mu   sync.Mutex
	puts map[string]int // name → PUT body size
}

func (s *bootStore) Put(ctx context.Context, name string, data []byte) error {
	if s.walErr != nil && strings.HasPrefix(name, "WAL/") {
		time.Sleep(s.walDelay)
		return s.walErr
	}
	s.mu.Lock()
	s.puts[name] = len(data)
	s.mu.Unlock()
	return s.ObjectStore.Put(ctx, name, data)
}

// bootFS holds a PostgreSQL-shaped database whose first WAL segment is
// walSize bytes: half noise, half zeros.
func bootFS(t *testing.T, walSize int) vfs.FS {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(walSize)))
	fsys := vfs.NewMemFS()
	for p, n := range map[string]int{
		pgengine.WALDir + "/000000010000000000000001": walSize,
		pgengine.WALDir + "/000000010000000000000002": 3000,
		"base/1/1":          40 << 10,
		"global/pg_control": 512,
	} {
		b := make([]byte, n)
		rng.Read(b[:n/2])
		if err := vfs.WriteFile(fsys, p, b); err != nil {
			t.Fatal(err)
		}
	}
	return fsys
}

func bootParams() Params {
	p := DefaultParams()
	p.MaxObjectSize = 16 << 10
	p.CheckpointUploaders = 4
	p.Compress = true
	p.RetryBaseDelay = time.Millisecond
	return p
}

// TestBootWALObjectsAreEncodedRanges: Boot cuts a WAL file of three times
// MaxObjectSize into objects at consecutive timestamps, each PUT within
// MaxObjectSize; every WAL object opens to exactly EncodeWrites of its
// file range, the ranges tile each file, and Recover rebuilds every file
// byte for byte.
func TestBootWALObjectsAreEncodedRanges(t *testing.T) {
	params := bootParams()
	fsys := bootFS(t, 3*int(params.MaxObjectSize))
	store := &bootStore{ObjectStore: cloud.NewMemStore(), puts: map[string]int{}}
	g, err := New(fsys, store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.Close()
	for name, size := range store.puts {
		if int64(size) > params.MaxObjectSize {
			t.Errorf("Boot PUT %s of %d bytes, over MaxObjectSize %d", name, size, params.MaxObjectSize)
		}
	}
	wals := g.View().WALObjects()
	covered := map[string]int64{}
	for i, w := range wals {
		if w.Ts != wals[0].Ts+int64(i) {
			t.Fatalf("WAL object %d has ts %d, want consecutive from %d", i, w.Ts, wals[0].Ts)
		}
		sealed, err := store.Get(context.Background(), WALObjectName(w.Ts, w.Filename, w.Offset))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := g.io.seal.Open(sealed)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := DecodeWrites(payload)
		if err != nil || len(ws) != 1 || ws[0].Path != w.Filename || ws[0].Offset != w.Offset || w.Offset != covered[w.Filename] {
			t.Fatalf("WAL object %+v decodes to %d writes (err %v), want one at the end of the covered range", w, len(ws), err)
		}
		file := readAll(t, fsys, w.Filename)
		end := w.Offset + int64(len(ws[0].Data))
		want := EncodeWrites([]FileWrite{{Path: w.Filename, Offset: w.Offset, Data: file[w.Offset:end]}})
		if !bytes.Equal(payload, want) {
			t.Fatalf("WAL object %+v is not EncodeWrites of its file range", w)
		}
		covered[w.Filename] = end
	}
	big := pgengine.WALDir + "/000000010000000000000001"
	if n := len(wals); n < 5 || covered[big] != int64(len(readAll(t, fsys, big))) {
		t.Fatalf("%d WAL objects cover %d bytes of %s; want it split in at least four", n, covered[big], big)
	}

	target := vfs.NewMemFS()
	r, err := New(target, store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.Close()
	files, err := vfs.Walk(fsys, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range files {
		if !bytes.Equal(readAll(t, target, p), readAll(t, fsys, p)) {
			t.Fatalf("recovered %s differs from the booted one", p)
		}
	}
}

// TestBootWALFailureLeavesNoDump: dump parts seal beside the Boot WAL PUTs
// but are PUT only once every WAL object landed, so a WAL PUT that fails —
// slowly, long after the dump could have landed — leaves a bucket whose
// listing holds no complete ts-0 dump.
func TestBootWALFailureLeavesNoDump(t *testing.T) {
	params := bootParams()
	params.UploadRetries = 1
	errDown := errors.New("test: WAL PUT refused")
	store := &bootStore{ObjectStore: cloud.NewMemStore(), puts: map[string]int{},
		walDelay: 100 * time.Millisecond, walErr: errDown}
	g, err := New(bootFS(t, 3000), store, dbevent.NewPGProcessor(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Boot(context.Background()); !errors.Is(err, errDown) {
		t.Fatalf("Boot = %v, want the WAL PUT's error", err)
	}
	infos, err := store.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	view := NewCloudView()
	if err := view.LoadFromList(infos); err != nil {
		t.Fatal(err)
	}
	if dbs := view.DBObjects(); len(dbs) != 0 {
		t.Fatalf("a failed Boot left complete DB objects %+v without their WAL", dbs)
	}
}
