package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestSingleFileBiggerThanMaxObjectSizeStreams grows one data file well
// past MaxObjectSize, forces a dump, and takes it through disaster
// recovery: the streaming data path must split that single file across
// several independently sealed parts (".s<part>" names with a final
// ".n<count>" commit marker) and recovery must decode each part as it
// arrives, reproducing every row.
func TestSingleFileBiggerThanMaxObjectSizeStreams(t *testing.T) {
	params := fastParams()
	params.MaxObjectSize = 2048
	params.DumpThreshold = 1.0 // the first checkpoint becomes a dump
	params.CheckpointUploaders = 3
	r := pgRig(t, params)
	if err := r.db.CreateTable("big", 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r.put(t, "big", fmt.Sprintf("k%02d", i), strings.Repeat("v", 512))
	}
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !r.g.SyncCheckpoints(5 * time.Second) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}

	// The premise: at least one data-class file really is bigger than
	// MaxObjectSize, so a single file must span parts.
	proc := dbevent.NewPGProcessor()
	files, err := vfs.Walk(r.localFS, "")
	if err != nil {
		t.Fatal(err)
	}
	var biggest int64
	for _, p := range files {
		if proc.FileKind(p) != dbevent.KindData {
			continue
		}
		if fi, err := r.localFS.Stat(p); err == nil && fi.Size() > biggest {
			biggest = fi.Size()
		}
	}
	if biggest <= params.MaxObjectSize {
		t.Fatalf("largest data file is %d B, not above MaxObjectSize %d — test premise broken",
			biggest, params.MaxObjectSize)
	}

	// The dump must be in the part-sealed format: ".s" parts and exactly
	// one ".n" commit marker per multi-part object.
	infos, err := r.store.List(context.Background(), "DB/")
	if err != nil {
		t.Fatal(err)
	}
	sealedParts, markers := 0, 0
	for _, info := range infos {
		n, err := core.ParseDBObjectName(info.Name)
		if err != nil {
			t.Fatalf("unparseable name %q: %v", info.Name, err)
		}
		if n.Part >= 0 {
			sealedParts++
			if n.Count > 0 {
				markers++
			}
			if info.Size != n.Size {
				t.Fatalf("part %q lists %d B, name declares %d", info.Name, info.Size, n.Size)
			}
		}
	}
	if sealedParts < 2 || markers == 0 {
		t.Fatalf("dump not part-sealed: %d sealed parts, %d markers, listing %+v",
			sealedParts, markers, infos)
	}

	db2 := r.disasterRecover(t)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		v, err := db2.Get("big", []byte(key))
		if err != nil {
			t.Fatalf("recovered Get(%s): %v", key, err)
		}
		if string(v) != strings.Repeat("v", 512) {
			t.Fatalf("recovered %s corrupted (%d bytes)", key, len(v))
		}
	}
}
