package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/sealer"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// TestSealFromPartSourceMatchesEncodedPart: a part sealed from its source,
// segment by segment, is byte for byte the part encoded whole and sealed,
// under the compressing and the plain sealer. The random plans mix runs
// of contiguous collected writes that small budgets split across parts,
// file ranges with and without the whole flag, and extras; a one-part
// plan of collected writes encodes to exactly what joinRuns builds.
func TestSealFromPartSourceMatchesEncodedPart(t *testing.T) {
	compress, err := sealer.New(sealer.Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	sealers := map[string]*sealer.Sealer{"compress": compress, "plain": sealer.NewPlain()}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := []int64{600, 4 << 10, 100 << 10, 1 << 20, 64 << 20}[rng.Intn(5)]
		scale := int(min(budget*32, 3<<20))
		fsys := vfs.NewMemFS()
		files := []string{"base/1/1", "base/1/2"}
		for _, p := range files {
			b := make([]byte, 1+rng.Intn(scale))
			rng.Read(b[:len(b)/2]) // half noise, half zeros: something to compress
			if err := vfs.WriteFile(fsys, p, b); err != nil {
				t.Fatal(err)
			}
		}

		// Collected writes: runs of contiguous pages, some rewritten.
		var ws []FileWrite
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			w := FileWrite{Path: files[rng.Intn(2)], Offset: int64(rng.Intn(scale))}
			if i > 0 && rng.Intn(2) == 0 {
				w.Path, w.Offset = ws[i-1].Path, ws[i-1].End()
			}
			w.Data = bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(scale/8))
			ws = append(ws, w)
		}
		merged := new(mergeScratch).merge(ws, false)
		entries := entriesFromWrites(merged)
		if parts := planParts(entries, 64<<20); budget == 64<<20 {
			joined := joinRuns(slices.Clone(merged))
			if got, want := encodeRef(t, fsys, parts[0]), EncodeWrites(joined); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: a one-part plan encodes to %d bytes, joinRuns to %d different ones", seed, len(got), len(want))
			}
		}
		// File ranges, whole or partial, and an extras region.
		for _, p := range files {
			size := int64(len(readAll(t, fsys, p)))
			if rng.Intn(2) == 0 {
				entries = append(entries, planEntry{path: p, length: size, whole: true})
			} else {
				off := rng.Int63n(size)
				entries = append(entries, planEntry{path: p, offset: off, length: rng.Int63n(size - off + 1)})
			}
		}
		extra := make([]byte, rng.Intn(64<<10))
		rng.Read(extra)
		entries = append(entries, planEntry{path: "pg_xlog/1", offset: 512, length: int64(len(extra)), data: [][]byte{extra}})

		tracker := new(streamTracker)
		u := &partUploader{fs: fsys, tracker: tracker}
		for i, part := range planParts(entries, budget) {
			ref := encodeRef(t, fsys, part)
			for name, s := range sealers {
				want, err := s.Seal(ref)
				if err != nil {
					t.Fatal(err)
				}
				src, err := u.source(part)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.SealFrom(context.Background(), src.n, src.fill)
				src.close()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d part %d (%s, budget %d): SealFrom wrote %d bytes, Seal %d different ones",
						seed, i, name, budget, len(got), len(want))
				}
				if cur := tracker.cur.Load(); cur != 0 {
					t.Fatalf("seed %d part %d: %d read bytes still tracked after the seal", seed, i, cur)
				}
			}
		}
	}
}

func readAll(t *testing.T, fsys vfs.FS, path string) []byte {
	t.Helper()
	b, err := vfs.ReadFile(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeRef encodes a part whole: its pieces joined, its file ranges read.
func encodeRef(t *testing.T, fsys vfs.FS, part []planEntry) []byte {
	t.Helper()
	ws := make([]FileWrite, len(part))
	for i, e := range part {
		ws[i] = FileWrite{Path: e.path, Offset: e.offset, Whole: e.whole, Data: bytes.Join(e.data, nil)}
		if e.data == nil {
			ws[i].Data = readAll(t, fsys, e.path)[e.offset : e.offset+e.length]
		}
	}
	return EncodeWrites(ws)
}

// TestCheckpointUploadAllocatesItsSealedBytes: uploading a 16 MiB
// checkpoint, up to its held PUT, allocates its sealed bytes and little
// else — the pages stream from the collected writes into the sealer, with
// no encoded copy of the part in between.
func TestCheckpointUploadAllocatesItsSealedBytes(t *testing.T) {
	const pages = 2048 // 16 MiB
	r := newAbsorbRig(t, pages, func(p *Params) { p.DumpThreshold = 100 })
	r.store.block("_checkpoint_")
	fill := func(size int) []byte { return bytes.Repeat([]byte{'c'}, size) }
	write := func(path string, off int64, data []byte) {
		t.Helper()
		if err := vfs.WriteAt(r.g.FS(), path, off, data); err != nil {
			t.Fatal(err)
		}
	}
	write("pg_clog/0000", 0, fill(256))
	for pg := 0; pg < pages; pg++ {
		write(absorbData, int64(pg)*absorbPage, fill(absorbPage))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	write("global/pg_control", 0, fill(28))
	if r.g.SyncCheckpoints(time.Second) || r.store.heldPuts() != 1 {
		t.Fatalf("the checkpoint is not held in its PUT (%d held, err %v)", r.store.heldPuts(), r.g.Err())
	}
	runtime.ReadMemStats(&after)
	sealed := r.putDBObjects()[0].Size
	slack := int64(r.g.params.CheckpointUploaders) * 2 << 20
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > sealed+slack {
		t.Fatalf("uploading a %d-byte sealed checkpoint allocated %d bytes, want at most %d more",
			sealed, alloc, slack)
	}
}
