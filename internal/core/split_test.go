package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestDBObjectSplitEndToEnd forces dumps bigger than MaxObjectSize so DB
// objects are uploaded in parts, then recovers and verifies through the
// multipart path.
func TestDBObjectSplitEndToEnd(t *testing.T) {
	params := fastParams()
	params.MaxObjectSize = 4096 // tiny cap → every dump splits
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 16); err != nil {
		t.Fatal(err)
	}
	// ≈40 KiB of data so the dump spans ~10 parts.
	for i := 0; i < 40; i++ {
		r.put(t, "kv", fmt.Sprintf("k%02d", i), strings.Repeat("x", 512))
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

	// Force a dump by dropping the threshold and checkpointing again.
	// (The boot dump was empty; with the tiny cap the incremental
	// checkpoint itself may already have split — both paths are good.)
	infos, err := r.store.List(context.Background(), "DB/")
	if err != nil {
		t.Fatal(err)
	}
	parts := 0
	for _, info := range infos {
		if strings.Contains(info.Name, ".p") || strings.Contains(info.Name, ".s") {
			parts++
		}
	}
	if parts < 2 {
		t.Fatalf("expected split DB objects, listing: %+v", infos)
	}

	// Recovery must reassemble the parts.
	db2 := r.disasterRecover(t)
	for i := 0; i < 40; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatalf("k%02d lost through multipart recovery: %v", i, err)
		}
	}

	// Verification must also handle part sets.
	gv, err := core.New(vfs.NewMemFS(), r.store, r.proc(), params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gv.Verify(context.Background(), vfs.NewMemFS(),
		func(fsys vfs.FS) error {
			db, err := minidb.Open(fsys, r.engine(), minidb.Options{})
			if err != nil {
				return err
			}
			return db.Close()
		}, nil)
	if err != nil {
		t.Fatalf("Verify with multipart objects: %v", err)
	}
	if res.ObjectsChecked == 0 || !res.RestartOK {
		t.Fatalf("VerifyResult = %+v", res)
	}
}

// TestVerifyWithEncryptedBackup runs the verification procedure against a
// compressed + encrypted backup.
func TestVerifyWithEncryptedBackup(t *testing.T) {
	params := fastParams()
	params.Compress = true
	params.Encrypt = true
	params.Password = "verify-me"
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.put(t, "kv", fmt.Sprintf("k%d", i), "v")
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	gv, err := core.New(vfs.NewMemFS(), r.store, r.proc(), params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gv.Verify(context.Background(), vfs.NewMemFS(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectsChecked == 0 {
		t.Fatal("nothing checked")
	}
}

// TestRecoverAtTargetBounds pins RecoverAt's target semantics: an invalid
// target (< -1) errors, a timestamp far past the frontier recovers the
// newest consistent prefix (every retained commit ≤ ts, i.e. everything),
// and a timestamp before the oldest retained dump reports ErrNoDump.
func TestRecoverAtTargetBounds(t *testing.T) {
	r := pgRig(t, fastParams())
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "k", "v")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	gr, err := core.New(vfs.NewMemFS(), r.store, r.proc(), r.g.Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.RecoverAt(context.Background(), vfs.NewMemFS(), -2); err == nil {
		t.Fatal("RecoverAt(-2) succeeded; want invalid-target error")
	}
	// A ts far beyond the WAL frontier means "everything committed up to
	// ts": with nothing newer in the cloud that is simply the newest state.
	if err := gr.RecoverAt(context.Background(), vfs.NewMemFS(), 424242); err != nil {
		t.Fatalf("RecoverAt far past the frontier: %v", err)
	}
	// Boot's dump is at reserved ts 0, so no target can precede every dump
	// here; an impossible target must still surface ErrNoDump when no dump
	// qualifies. Simulate by asking a fresh empty bucket.
	empty, err := core.New(vfs.NewMemFS(), cloud.NewMemStore(), r.proc(), r.g.Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.RecoverAt(context.Background(), vfs.NewMemFS(), 5); !errors.Is(err, core.ErrNoDump) {
		t.Fatalf("RecoverAt on empty bucket: got %v, want ErrNoDump", err)
	}
}

// TestBatchTimeoutDrivesUploadsEndToEnd: a single commit with a huge B
// must still reach the cloud within TB.
func TestBatchTimeoutDrivesUploadsEndToEnd(t *testing.T) {
	params := fastParams()
	params.Batch = 1000 // never filled by one commit
	params.Safety = 10000
	params.BatchTimeout = 30 * time.Millisecond
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "lonely", "commit")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("TB did not push the lonely commit out")
	}
	if r.g.Stats().WALObjectsUploaded == 0 {
		t.Fatal("nothing uploaded")
	}
}
