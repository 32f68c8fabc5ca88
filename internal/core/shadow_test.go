package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// trimStream drives a never-started pipeline's planBatch over random
// batches of WAL rewrites, fresh zero-tailed pages, appends and
// overlapping writes to a few files, with random cuts between batches.
// It records each object twice: as recovery decodes what planBatch
// trimmed and cut, and as the same batch packs untrimmed.
type trimStream struct {
	objs, plain [][]FileWrite // by ts - 1
	cuts        []int64       // DB object timestamps, 0 for Boot's dump
}

const (
	trimPage  = 256
	trimFiles = 3
)

func runTrimStream(t *testing.T, rng *rand.Rand) trimStream {
	t.Helper()
	params := DefaultParams()
	params.MaxObjectSize = []int64{0, 300, 1000}[rng.Intn(3)]
	params.Compress = rng.Intn(4) == 0 // no zero fills then
	view := NewCloudView()
	p := newPipeline(view, nil, params)
	defer p.cancel()

	live := make([][]byte, trimFiles) // what the DBMS wrote, per file
	tip := make([]int64, trimFiles)   // current page per file
	var s trimStream
	s.cuts = []int64{0}
	var shadow [trimFiles]*FileWrite // the model's shadows
	var m mergeScratch
	for b := 0; b < 30; b++ {
		if rng.Intn(4) == 0 {
			s.cuts = append(s.cuts, view.cut())
			shadow = [trimFiles]*FileWrite{}
		}
		updates := make([]update, 1+rng.Intn(4))
		for i := range updates {
			f := rng.Intn(trimFiles)
			var off, n int64
			fresh := false
			switch rng.Intn(5) {
			case 4: // a fresh page: a record at its head, zeros after
				fresh = true
				fallthrough
			case 0: // the next page
				tip[f] += trimPage
				fallthrough
			case 1: // the current page again
				off, n = tip[f], trimPage
			case 2: // a run over a page boundary
				off, n = tip[f]+int64(rng.Intn(trimPage)), int64(1+rng.Intn(2*trimPage))
			default: // a short write anywhere before the tip
				off, n = int64(rng.Intn(int(tip[f])+trimPage)), int64(1+rng.Intn(64))
			}
			if need := int(off + n); need > len(live[f]) {
				live[f] = append(live[f], make([]byte, need-len(live[f]))...)
			}
			data := bytes.Clone(live[f][off : off+n])
			if fresh {
				rng.Read(data[:1+rng.Intn(trimPage/2)])
			}
			for k := rng.Intn(3); k > 0 && !fresh; k-- { // change a stretch, or nothing
				lo := rng.Intn(len(data))
				rng.Read(data[lo : lo+1+rng.Intn(len(data)-lo)])
			}
			copy(live[f][off:], data)
			updates[i] = update{path: fmt.Sprintf("pg_wal/%d", f), off: off, data: data}
		}
		writes := make([]FileWrite, len(updates))
		for i, u := range updates {
			writes[i] = FileWrite{Path: u.path, Offset: u.off, Data: u.data}
		}
		merged := m.merge(writes, false)
		plain := PackWrites(merged, params.MaxObjectSize)
		first := p.planBatch(updates)
		if first != int64(len(s.objs))+1 || len(p.plan) != len(plain) {
			t.Fatalf("batch %d: %d objects from ts %d, want %d from ts %d",
				b, len(p.plan), first, len(plain), len(s.objs)+1)
		}
		for i, group := range p.plan {
			var want []FileWrite
			for _, w := range plain[i] {
				w = modelTrim(w, shadow[int(w.Path[len(w.Path)-1]-'0')])
				if params.Compress {
					want = append(want, w)
				} else {
					want = append(want, modelCut(w)...)
				}
			}
			if len(group) != len(want) {
				t.Fatalf("batch %d object %d: shipped %d writes, want %d", b, i, len(group), len(want))
			}
			for j, w := range group {
				if w.Offset != want[j].Offset || w.Zero != want[j].Zero || !bytes.Equal(w.Data, want[j].Data) {
					t.Fatalf("batch %d object %d write %d: shipped %s@%d+%d zero=%t, want @%d+%d zero=%t",
						b, i, j, w.Path, w.Offset, len(w.Data), w.Zero, want[j].Offset, len(want[j].Data), want[j].Zero)
				}
			}
			decoded, err := DecodeWrites(EncodeWrites(group))
			if err != nil {
				t.Fatalf("batch %d object %d: %v", b, i, err)
			}
			s.objs = append(s.objs, decoded)
			s.plain = append(s.plain, cloneWrites(plain[i]))
		}
		for i, w := range merged {
			if i+1 == len(merged) || merged[i+1].Path != w.Path {
				c := FileWrite{Path: w.Path, Offset: w.Offset, Data: bytes.Clone(w.Data)}
				shadow[int(w.Path[len(w.Path)-1]-'0')] = &c
			}
		}
	}
	return s
}

// modelTrim is the trim rule byte by byte: drop w's leading bytes equal
// to the shadow's if w starts inside it, then its trailing ones if w ends
// inside it.
func modelTrim(w FileWrite, sh *FileWrite) FileWrite {
	lo, hi := w.Offset, w.End()
	in := func(pos int64) bool { return sh != nil && pos >= sh.Offset && pos < sh.End() }
	same := func(pos int64) bool { return in(pos) && sh.Data[pos-sh.Offset] == w.Data[pos-w.Offset] }
	if in(lo) {
		for lo < hi && same(lo) {
			lo++
		}
	}
	if in(hi - 1) {
		for hi > lo && same(hi-1) {
			hi--
		}
	}
	return FileWrite{Path: w.Path, Offset: lo, Data: w.Data[lo-w.Offset : hi-w.Offset]}
}

// modelCut is the zero-fill rule byte by byte: w's trailing zero run, if
// longer than the 19-byte entry header plus the path, ships as a zero
// fill after what is left of w.
func modelCut(w FileWrite) []FileWrite {
	keep := len(w.Data)
	for keep > 0 && w.Data[keep-1] == 0 {
		keep--
	}
	if len(w.Data)-keep <= 19+len(w.Path) {
		return []FileWrite{w}
	}
	fill := FileWrite{Path: w.Path, Offset: w.Offset + int64(keep), Data: w.Data[keep:], Zero: true}
	if keep == 0 {
		return []FileWrite{fill}
	}
	return []FileWrite{{Path: w.Path, Offset: w.Offset, Data: w.Data[:keep]}, fill}
}

func cloneWrites(ws []FileWrite) []FileWrite {
	out := make([]FileWrite, len(ws))
	for i, w := range ws {
		out[i] = FileWrite{Path: w.Path, Offset: w.Offset, Data: bytes.Clone(w.Data)}
	}
	return out
}

// TestTrimmedWALReplaysLikeUntrimmed is the trim's soundness property:
// for every cut (a DB object's timestamp, where recovery starts) and every
// crash prefix after it, replaying the trimmed objects after the cut,
// encoded and decoded as recovery reads them, onto arbitrary bytes gives
// the untrimmed replay's bytes wherever a write landed. Each shipped write
// is also exactly the rule's trim of its untrimmed self against the
// untrimmed shadow, followed by its zero fill where the sealer does not
// compress, and every batch mints the objects its untrimmed writes pack
// into, even when nothing changed.
func TestTrimmedWALReplaysLikeUntrimmed(t *testing.T) {
	fills := 0
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := runTrimStream(t, rng)
		for _, obj := range s.objs {
			for _, w := range obj {
				if w.Zero {
					fills++
				}
			}
		}
		for _, cut := range s.cuts {
			// Arbitrary bytes where recovery starts: what the DB object
			// holds of the WAL files is no concern of the objects after it.
			var got, want [trimFiles][]byte
			for f := range got {
				got[f] = make([]byte, 8*trimPage)
				rng.Read(got[f])
				want[f] = bytes.Clone(got[f])
			}
			// A trimmed write lies inside its untrimmed one, so after each
			// object only the untrimmed writes' bytes can newly differ.
			for ts := cut + 1; ts <= int64(len(s.objs)); ts++ {
				replayWrites(&got, s.objs[ts-1])
				replayWrites(&want, s.plain[ts-1])
				for _, w := range s.plain[ts-1] {
					f := int(w.Path[len(w.Path)-1] - '0')
					if int(w.End()) > len(got[f]) || !bytes.Equal(got[f][w.Offset:w.End()], want[f][w.Offset:w.End()]) {
						t.Fatalf("seed %d: recovery from cut %d through ts %d: %s [%d, %d) differs from the untrimmed replay",
							seed, cut, ts, w.Path, w.Offset, w.End())
					}
				}
			}
		}
	}
	if fills == 0 {
		t.Fatal("no object shipped a zero fill")
	}
	t.Logf("%d zero fills shipped", fills)
}

func replayWrites(files *[trimFiles][]byte, ws []FileWrite) {
	for _, w := range ws {
		f := int(w.Path[len(w.Path)-1] - '0')
		if end := int(w.End()); end > len(files[f]) {
			files[f] = append(files[f], make([]byte, end-len(files[f]))...)
		}
		copy(files[f][w.Offset:], w.Data)
	}
}

// TestPipelineShipsOnlyChangedBytes runs the trim end to end at S=B=1: a
// WAL page rewritten with one record appended ships only that record,
// and a rewrite that changes nothing still mints its object, so the
// timestamps stay consecutive and every commit is acknowledged.
func TestPipelineShipsOnlyChangedBytes(t *testing.T) {
	store := cloud.NewMemStore()
	p := testParams(1, 1)
	pipe := startPipeline(t, store, p)
	record := []byte("a 27-byte commit record ...")
	empty := make([]byte, 8192)
	copy(empty, "page header")
	page := bytes.Clone(empty)
	copy(page[100:], record)
	for _, data := range [][]byte{empty, page, page} {
		if _, err := pipe.submit("pg_wal/0001", 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if !pipe.q.drain(2 * time.Second) {
		t.Fatal("queue did not drain")
	}
	if got := pipe.stats.walObjects.Load(); got != 3 {
		t.Fatalf("uploaded %d WAL objects, want 3", got)
	}
	if raw, max := pipe.stats.rawBytes.Load(), int64(3*40+8192+len(record)); raw > max {
		t.Fatalf("shipped %d raw bytes, want at most %d", raw, max)
	}
	names := make([]string, 3)
	for ts := range names {
		names[ts] = pipe.view.WALObjects()[ts].Name()
	}
	target := vfs.NewMemFS()
	if _, err := pipe.io.restore(context.Background(), target, names, nil); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(target, "pg_wal/0001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("replayed page differs from the last one written")
	}
}

// TestTrimAllocatesNothing: in steady state, planning a batch of page
// rewrites allocates nothing, across cuts too. A cut hands the cleared
// shadows' buffers to the next batch instead of dropping them.
func TestTrimAllocatesNothing(t *testing.T) {
	view := NewCloudView()
	p := newPipeline(view, nil, DefaultParams())
	defer p.cancel()
	page := make([]byte, 8192)
	batch := []update{
		{path: "pg_wal/1", off: 0, data: page},
		{path: "pg_wal/2", off: 8192, data: page},
	}
	round := func() {
		view.cut()
		for i := 0; i < 4; i++ {
			page[100+i] = byte(i)
			p.planBatch(batch)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%.1f allocations per round of a cut and four batches, want 0", n)
	}
}

// TestZeroTailCutAllocatesNothing: in steady state, planning batches of
// fresh pages, each a record at the head and zeros after, cuts every
// write into its record and a zero fill without allocating: the groups
// grow into capacity kept from earlier batches.
func TestZeroTailCutAllocatesNothing(t *testing.T) {
	view := NewCloudView()
	p := newPipeline(view, nil, DefaultParams())
	defer p.cancel()
	var batches [4][]update
	for i := range batches {
		for f := 0; f < 2; f++ {
			page := make([]byte, 8192)
			copy(page, fmt.Sprintf("record %d of pg_wal/%d", i, f))
			batches[i] = append(batches[i], update{path: fmt.Sprintf("pg_wal/%d", f), off: int64(i) * 8192, data: page})
		}
	}
	round := func() {
		view.cut()
		for _, batch := range batches {
			p.planBatch(batch)
		}
	}
	round()
	if n := len(p.plan[0]); n != 4 || !p.plan[0][1].Zero || !p.plan[0][3].Zero {
		t.Fatalf("planned %+v, want two records each followed by a zero fill", p.plan[0])
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%.1f allocations per round of a cut and four batches, want 0", n)
	}
}
