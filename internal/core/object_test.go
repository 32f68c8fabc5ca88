package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ginja-dr/ginja/internal/vfs"
)

func TestWALObjectNameRoundTrip(t *testing.T) {
	tests := []struct {
		ts       int64
		filename string
		offset   int64
	}{
		{0, "pg_xlog/000000010000000000000001", 0},
		{42, "pg_xlog/000000010000000000000007", 16384},
		{7, "ib_logfile0", 2048},
		{9, "my_table_log/seg_01", 512}, // underscores inside the filename
	}
	for _, tt := range tests {
		name := WALObjectName(tt.ts, tt.filename, tt.offset)
		ts, filename, offset, err := ParseWALObjectName(name)
		if err != nil {
			t.Fatalf("parse %q: %v", name, err)
		}
		if ts != tt.ts || filename != tt.filename || offset != tt.offset {
			t.Fatalf("round trip %q = (%d, %s, %d)", name, ts, filename, offset)
		}
	}
}

func TestWALObjectNameMatchesPaperFormat(t *testing.T) {
	// §5.2: WAL/<ts>_<filename>_<offset>
	got := WALObjectName(12, "pg_xlog/000000010000000000000002", 8192)
	want := "WAL/12_pg_xlog/000000010000000000000002_8192"
	if got != want {
		t.Fatalf("name = %q, want %q", got, want)
	}
}

func TestParseWALObjectNameRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "WAL/", "WAL/xyz", "DB/1_dump_2", "WAL/nots_file_0", "WAL/1_file_nooff"} {
		if _, _, _, err := ParseWALObjectName(bad); err == nil {
			t.Errorf("ParseWALObjectName(%q) accepted", bad)
		}
	}
}

func TestDBObjectNameRoundTrip(t *testing.T) {
	tests := []struct {
		ts   int64
		gen  int
		typ  DBObjectType
		size int64
	}{
		{0, 0, Dump, 1 << 30},
		{55, 0, Checkpoint, 4096},
		{55, 1, Checkpoint, 4096},
		{99, 3, Dump, 123},
	}
	for _, tt := range tests {
		name := DBObjectName(tt.ts, tt.gen, tt.typ, tt.size)
		n, err := ParseDBObjectName(name)
		if err != nil {
			t.Fatalf("parse %q: %v", name, err)
		}
		if n.Ts != tt.ts || n.Gen != tt.gen || n.Type != tt.typ || n.Size != tt.size || n.Part != -1 || n.Count != 0 {
			t.Fatalf("round trip %q = %+v", name, n)
		}
	}
}

func TestDBPartNameRoundTrip(t *testing.T) {
	tests := []struct {
		ts          int64
		gen         int
		typ         DBObjectType
		size        int64
		part, count int
	}{
		{0, 0, Dump, 9000, 0, 0},
		{55, 2, Checkpoint, 4096, 1, 0},
		{55, 0, Dump, 123, 2, 3}, // final part carries the count marker
		{7, 4, Dump, 1, 9, 10},
	}
	for _, tt := range tests {
		name := DBPartName(tt.ts, tt.gen, tt.typ, tt.size, tt.part, tt.count)
		n, err := ParseDBObjectName(name)
		if err != nil {
			t.Fatalf("parse %q: %v", name, err)
		}
		if n.Ts != tt.ts || n.Gen != tt.gen || n.Type != tt.typ || n.Size != tt.size ||
			n.Part != tt.part || n.Count != tt.count {
			t.Fatalf("round trip %q = %+v", name, n)
		}
	}
}

func TestDBPartNameFormat(t *testing.T) {
	if got := DBPartName(5, 0, Dump, 123, 0, 0); got != "DB/5_dump_123.s0" {
		t.Fatalf("name = %q", got)
	}
	if got := DBPartName(5, 2, Dump, 99, 3, 4); got != "DB/5_dump_99.g2.s3.n4" {
		t.Fatalf("name = %q", got)
	}
}

func TestDBObjectNameMatchesPaperFormat(t *testing.T) {
	// §5.2: DB/<ts>_<type>_<size>
	if got := DBObjectName(0, 0, Dump, 777); got != "DB/0_dump_777" {
		t.Fatalf("name = %q", got)
	}
	if got := DBObjectName(3, 0, Checkpoint, 10); got != "DB/3_checkpoint_10" {
		t.Fatalf("name = %q", got)
	}
}

func TestParseDBObjectNameRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "DB/", "DB/1_dump", "DB/1_blob_2", "WAL/1_f_0", "DB/x_dump_2",
		"DB/1_dump_2.n2",    // count marker without a part index
		"DB/1_dump_2.s0.n3", // marker not on the final part
		"DB/1_dump_2.p0",    // the retired whole-sealed part suffix
		"DB/1_dump_2.g1.p3", // ... after a generation
		"DB/1_dump_2.p0.n2", // ... under a marker
		"DB/1_dump_2.s0.p1", // ... after a part index
		"DB/1_dump_2.s1.n1", // count < 2 is not a marker, so ".n1" corrupts the size field
		"DB/1_dump_2.s-1",   // negative sealed index corrupts the size field
	} {
		if _, err := ParseDBObjectName(bad); err == nil {
			t.Errorf("ParseDBObjectName(%q) accepted", bad)
		}
	}
}

func TestEncodeDecodeWrites(t *testing.T) {
	writes := []FileWrite{
		{Path: "pg_xlog/0001", Offset: 8192, Data: []byte("page content")},
		{Path: "base/16384/t", Data: []byte("whole file"), Whole: true},
		{Path: "empty", Offset: 0, Data: nil},
	}
	decoded, err := DecodeWrites(EncodeWrites(writes))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(writes) {
		t.Fatalf("decoded %d writes, want %d", len(decoded), len(writes))
	}
	for i := range writes {
		if decoded[i].Path != writes[i].Path || decoded[i].Offset != writes[i].Offset ||
			decoded[i].Whole != writes[i].Whole || !bytes.Equal(decoded[i].Data, writes[i].Data) {
			t.Fatalf("write %d mismatch: %+v vs %+v", i, decoded[i], writes[i])
		}
	}
}

func TestDecodeWritesRejectsCorruption(t *testing.T) {
	good := EncodeWrites([]FileWrite{{Path: "f", Data: []byte("data")}})
	bads := [][]byte{
		nil,
		[]byte("XXXX"),
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0xFF), // trailing junk
	}
	for i, bad := range bads {
		if _, err := DecodeWrites(bad); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestZeroFillRoundTrip: a Zero write ships as zero-fill entries of at
// most zeroBlockSize bytes each, with no data bytes, and decodes to
// writes of zeros that alias the shared block.
func TestZeroFillRoundTrip(t *testing.T) {
	long := zeroBlockSize + 100
	writes := []FileWrite{
		{Path: "pg_wal/1", Offset: 8192, Data: []byte("record")},
		{Path: "pg_wal/1", Offset: 8198, Data: make([]byte, 8186), Zero: true},
		{Path: "pg_wal/2", Offset: 1 << 24, Data: make([]byte, long), Zero: true},
	}
	buf := EncodeWrites(writes)
	if want := 8 + 4*entryHeader("pg_wal/1") + len("record"); len(buf) != want {
		t.Fatalf("encoded %d bytes, want %d: a zero fill ships no data", len(buf), want)
	}
	decoded, err := DecodeWrites(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []FileWrite{
		writes[0], writes[1],
		{Path: "pg_wal/2", Offset: 1 << 24, Data: make([]byte, zeroBlockSize), Zero: true},
		{Path: "pg_wal/2", Offset: 1<<24 + zeroBlockSize, Data: make([]byte, 100), Zero: true},
	}
	if !reflect.DeepEqual(decoded, want) {
		t.Fatalf("decoded %+v, want %+v", decoded, want)
	}
	for _, w := range decoded[1:] {
		if &w.Data[0] != &zeroBlock[0] || cap(w.Data) != len(w.Data) {
			t.Fatalf("zero fill at %d is not a capacity-clipped slice of the shared block", w.Offset)
		}
	}
	if re := EncodeWrites(decoded); !bytes.Equal(re, buf) {
		t.Fatal("decoded zero fills do not re-encode to the same bytes")
	}
}

// TestDecodeRejectsBadZeroFills: a zero fill longer than the block, an
// empty one and one that is also Whole are malformed, and a forged
// length sizes no allocation: the one the decoder makes is the write list,
// which the count field sizes and the buffer length bounds.
func TestDecodeRejectsBadZeroFills(t *testing.T) {
	entry := func(flags byte, dataLen int64) []byte {
		return appendEntryHeader(append([]byte(writeListMagic), 1, 0, 0, 0), flags, "", 0, dataLen)
	}
	for _, c := range []struct {
		name  string
		flags byte
		n     int64
	}{
		{"past the block", flagZero, zeroBlockSize + 1},
		{"2^62", flagZero, 1 << 62},
		{"empty", flagZero, 0},
		{"whole and zero", flagWhole | flagZero, 8},
		{"reserved flag", 4, 0},
	} {
		buf := entry(c.flags, c.n)
		if _, err := DecodeWrites(buf); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if n := testing.AllocsPerRun(10, func() { DecodeWrites(buf) }); n > 1 {
			t.Errorf("%s: %.0f allocations, want at most the write list's", c.name, n)
		}
	}
	if _, err := DecodeWrites(entry(flagZero, zeroBlockSize)); err != nil {
		t.Fatalf("a zero fill of exactly one block: %v", err)
	}
}

// TestZeroBlockStaysZero: applying decoded zero fills, writing over what
// they landed on and appending to their Data leave the shared block all
// zero.
func TestZeroBlockStaysZero(t *testing.T) {
	buf := EncodeWrites([]FileWrite{
		{Path: "pg_wal/1", Offset: 0, Data: []byte("record")},
		{Path: "pg_wal/1", Offset: 6, Data: make([]byte, 4090), Zero: true},
		{Path: "pg_wal/2", Offset: 0, Data: make([]byte, zeroBlockSize), Zero: true},
	})
	writes, err := DecodeWrites(buf)
	if err != nil {
		t.Fatal(err)
	}
	target := vfs.NewMemFS()
	if err := applyWrites(target, writes); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"pg_wal/1", "pg_wal/2"} {
		if err := vfs.WriteAt(target, path, 0, bytes.Repeat([]byte{0xAB}, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range writes {
		_ = append(w.Data, 0xCD)
	}
	if i := bytes.IndexFunc(zeroBlock[:], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("shared zero block holds a non-zero byte at %d", i)
	}
	got, err := vfs.ReadFile(target, "pg_wal/2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != zeroBlockSize || !bytes.Equal(got[5000:], zeroBlock[5000:]) {
		t.Fatal("the applied zero fill is not zeros")
	}
}

// TestEncodingWithoutZeroRunIsUnchanged: a batch whose writes end in no
// zero run plans and encodes to exactly the bytes it did before the
// zero-fill entry existed (the hash was taken from that encoder and
// Aggregator). Zeros inside a write stay data.
func TestEncodingWithoutZeroRunIsUnchanged(t *testing.T) {
	const want = "1548f5a4f0eba4febaca6533bde2bab4e26cb1863574297851178f4ae9e1b963"
	p := newPipeline(NewCloudView(), nil, DefaultParams())
	defer p.cancel()
	var batch []update
	for i := 0; i < 6; i++ {
		data := make([]byte, 100+300*i)
		for k := range data {
			if k < len(data)/3 || k > len(data)/2 { // a zero run inside
				data[k] = byte(1 + (i+k)%251)
			}
		}
		batch = append(batch, update{path: fmt.Sprintf("pg_wal/%d", i%2), off: int64(i) * 8192, data: data})
	}
	p.planBatch(batch)
	h := sha256.New()
	for _, group := range p.plan {
		h.Write(EncodeWrites(group))
	}
	h.Write(EncodeWrites([]FileWrite{
		{Path: "base/1", Data: []byte("whole file"), Whole: true},
		{Path: "base/2", Offset: 7},
	}))
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("encoding hash %s, want %s", got, want)
	}
}

func TestPropertyEncodeDecodeWrites(t *testing.T) {
	prop := func(paths []string, datas [][]byte, offsets []int64, whole []bool) bool {
		n := len(paths)
		for _, s := range [][]int{{len(datas)}, {len(offsets)}, {len(whole)}} {
			if s[0] < n {
				n = s[0]
			}
		}
		writes := make([]FileWrite, n)
		for i := 0; i < n; i++ {
			p := paths[i]
			if len(p) > 1000 {
				p = p[:1000]
			}
			off := offsets[i]
			if off < 0 {
				off = -off
			}
			writes[i] = FileWrite{Path: p, Offset: off, Data: datas[i], Whole: whole[i]}
		}
		decoded, err := DecodeWrites(EncodeWrites(writes))
		if err != nil {
			return false
		}
		if len(decoded) != len(writes) {
			return false
		}
		for i := range writes {
			if decoded[i].Path != writes[i].Path || decoded[i].Offset != writes[i].Offset ||
				decoded[i].Whole != writes[i].Whole || !bytes.Equal(decoded[i].Data, writes[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeWritesCoalescesSamePageRewrites(t *testing.T) {
	// Three rewrites of the same 8 KiB page: only the last must survive,
	// as a single write (the aggregation that cuts PUT costs, §5.3).
	writes := []FileWrite{
		{Path: "seg", Offset: 0, Data: bytes.Repeat([]byte{1}, 8192)},
		{Path: "seg", Offset: 0, Data: bytes.Repeat([]byte{2}, 8192)},
		{Path: "seg", Offset: 0, Data: bytes.Repeat([]byte{3}, 8192)},
	}
	merged := MergeWrites(writes)
	if len(merged) != 1 {
		t.Fatalf("merged into %d writes, want 1", len(merged))
	}
	if merged[0].Offset != 0 || len(merged[0].Data) != 8192 || merged[0].Data[0] != 3 {
		t.Fatalf("merged = offset %d, %d bytes, first byte %d", merged[0].Offset, len(merged[0].Data), merged[0].Data[0])
	}
}

func TestMergeWritesJoinsContiguousPages(t *testing.T) {
	writes := []FileWrite{
		{Path: "seg", Offset: 0, Data: bytes.Repeat([]byte{1}, 4096)},
		{Path: "seg", Offset: 4096, Data: bytes.Repeat([]byte{2}, 4096)},
		{Path: "seg", Offset: 8192, Data: bytes.Repeat([]byte{3}, 4096)},
	}
	merged := MergeWrites(writes)
	if len(merged) != 1 {
		t.Fatalf("merged into %d writes, want 1 contiguous run", len(merged))
	}
	if merged[0].Offset != 0 || len(merged[0].Data) != 12288 {
		t.Fatalf("merged run = (%d, %d bytes)", merged[0].Offset, len(merged[0].Data))
	}
}

func TestMergeWritesKeepsDisjointRunsAndFiles(t *testing.T) {
	writes := []FileWrite{
		{Path: "a", Offset: 0, Data: []byte("aa")},
		{Path: "a", Offset: 100, Data: []byte("bb")},
		{Path: "b", Offset: 0, Data: []byte("cc")},
	}
	merged := MergeWrites(writes)
	if len(merged) != 3 {
		t.Fatalf("merged = %+v, want 3 disjoint writes", merged)
	}
}

func TestMergeWritesPartialOverlap(t *testing.T) {
	writes := []FileWrite{
		{Path: "f", Offset: 0, Data: []byte("AAAAAAAA")}, // [0,8)
		{Path: "f", Offset: 4, Data: []byte("BBBB")},     // [4,8) overwritten, then extends? no: [4,8)
		{Path: "f", Offset: 6, Data: []byte("CCCC")},     // [6,10)
	}
	merged := MergeWrites(writes)
	if len(merged) != 1 {
		t.Fatalf("merged into %d writes: %+v", len(merged), merged)
	}
	want := "AAAABBCCCC"
	if merged[0].Offset != 0 || string(merged[0].Data) != want {
		t.Fatalf("merged = (%d, %q), want (0, %q)", merged[0].Offset, merged[0].Data, want)
	}
}

// mergeWritesOracle is MergeWrites as it was before the sort-and-sweep
// engine: every write cuts its range out of the file's segment list, then
// the list is sorted and contiguous segments joined. Quadratic and copying,
// but obviously right — the reference TestPropertyMergeWrites compares to.
func mergeWritesOracle(writes []FileWrite) []FileWrite {
	type segment struct {
		off  int64
		data []byte
	}
	files := make(map[string][]segment)
	var order []string
	var whole []FileWrite
	for _, w := range writes {
		if w.Whole {
			whole = append(whole, w)
			continue
		}
		if _, ok := files[w.Path]; !ok {
			order = append(order, w.Path)
		}
		segs := files[w.Path]
		// Cut away the parts of existing segments that the new write
		// overlaps, then insert the new write.
		var next []segment
		for _, s := range segs {
			sEnd := s.off + int64(len(s.data))
			switch {
			case sEnd <= w.Offset || s.off >= w.End():
				next = append(next, s) // disjoint
			default:
				if s.off < w.Offset { // left remainder
					next = append(next, segment{off: s.off, data: s.data[:w.Offset-s.off]})
				}
				if sEnd > w.End() { // right remainder
					next = append(next, segment{off: w.End(), data: s.data[w.End()-s.off:]})
				}
			}
		}
		next = append(next, segment{off: w.Offset, data: append([]byte(nil), w.Data...)})
		files[w.Path] = next
	}
	var out []FileWrite
	sort.Strings(order)
	for _, p := range order {
		segs := files[p]
		sort.Slice(segs, func(i, j int) bool { return segs[i].off < segs[j].off })
		// Merge contiguous segments.
		var cur *FileWrite
		for _, s := range segs {
			if cur != nil && cur.End() == s.off {
				cur.Data = append(cur.Data, s.data...)
				continue
			}
			if cur != nil {
				out = append(out, *cur)
			}
			cur = &FileWrite{Path: p, Offset: s.off, Data: s.data}
		}
		if cur != nil {
			out = append(out, *cur)
		}
	}
	return append(out, whole...)
}

func sameWrites(a, b []FileWrite) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || a[i].Offset != b[i].Offset || a[i].Whole != b[i].Whole ||
			!bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestPropertyMergeWrites: on write sequences over several files — page
// rewrites, partial overlaps, covering writes, contiguous runs, whole-file
// entries — MergeWrites returns exactly what the reference implementation
// does, and the Aggregator's no-join merge returns the same bytes as
// sorted, disjoint sub-slices of its input (no payload copied).
func TestPropertyMergeWrites(t *testing.T) {
	type op struct {
		File  uint8
		Off   uint16
		Data  []byte
		Page  bool // a page-aligned, page-sized write: exact rewrites and joins
		Whole bool
	}
	var scratch mergeScratch // reused across cases, as the Aggregator does
	prop := func(ops []op) bool {
		var writes []FileWrite
		for i, o := range ops {
			w := FileWrite{Path: string(rune('a' + o.File%3)), Offset: int64(o.Off % 512), Data: o.Data}
			switch {
			case o.Whole && i%8 == 0:
				w.Offset, w.Whole = 0, true
			case len(o.Data) == 0:
				continue
			case o.Page:
				w.Offset = int64(o.Off%8) * 64
				w.Data = bytes.Repeat([]byte{byte(i)}, 64)
			}
			writes = append(writes, w)
		}
		want := mergeWritesOracle(writes)
		if !sameWrites(MergeWrites(writes), want) {
			return false
		}
		// Without joining: sorted and disjoint, replaying to the same bytes
		// as the joined result, every piece inside one of the inputs.
		pieces := scratch.merge(writes, false)
		replay := func(ws []FileWrite) map[string][]byte {
			files := make(map[string][]byte)
			for _, w := range ws {
				if w.Whole {
					continue
				}
				f := files[w.Path]
				if int(w.End()) > len(f) {
					f = append(f, make([]byte, int(w.End())-len(f))...)
				}
				copy(f[w.Offset:], w.Data)
				files[w.Path] = f
			}
			return files
		}
		if !reflect.DeepEqual(replay(pieces), replay(want)) {
			return false
		}
		for i, pc := range pieces {
			if pc.Whole {
				continue
			}
			if i > 0 && pieces[i-1].Path == pc.Path && pieces[i-1].End() > pc.Offset {
				return false // overlapping or out of order
			}
			aliased := false
			for _, w := range writes {
				if d := pc.Offset - w.Offset; !w.Whole && w.Path == pc.Path && d >= 0 && pc.End() <= w.End() &&
					&pc.Data[0] == &w.Data[d] {
					aliased = true
				}
			}
			if !aliased {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeWritesCopiesOnlyJoinedRuns: a write that survives whole and
// alone comes back as the caller's own slice — what lets the checkpointer
// merge 6 MiB of collected pages without copying them again.
func TestMergeWritesCopiesOnlyJoinedRuns(t *testing.T) {
	a, b, c := []byte("aaaa"), []byte("bbbb"), []byte("cccc")
	merged := MergeWrites([]FileWrite{
		{Path: "f", Offset: 100, Data: c},
		{Path: "f", Offset: 0, Data: a},
		{Path: "f", Offset: 4, Data: b},
	})
	if len(merged) != 2 || string(merged[0].Data) != "aaaabbbb" || &merged[1].Data[0] != &c[0] {
		t.Fatalf("merged = %+v, want the joined run copied and the lone write aliased", merged)
	}
	merged[0].Data[0] = 'X'
	if a[0] != 'a' {
		t.Fatal("a joined run was built inside the caller's buffer")
	}
}

func TestSplitWrite(t *testing.T) {
	w := FileWrite{Path: "f", Offset: 100, Data: bytes.Repeat([]byte{7}, 2500)}
	parts := SplitWrite(w, 1000)
	if len(parts) != 3 {
		t.Fatalf("split into %d parts, want 3", len(parts))
	}
	wantOffsets := []int64{100, 1100, 2100}
	wantLens := []int{1000, 1000, 500}
	for i, p := range parts {
		if p.Offset != wantOffsets[i] || len(p.Data) != wantLens[i] {
			t.Fatalf("part %d = (%d, %d bytes)", i, p.Offset, len(p.Data))
		}
	}
	// Small writes pass through.
	if got := SplitWrite(w, 10000); len(got) != 1 || !reflect.DeepEqual(got[0], w) {
		t.Fatalf("small SplitWrite = %+v", got)
	}
}

// FuzzParseWALObjectName checks that any name the parser accepts
// round-trips: re-encoding the parsed fields and re-parsing yields the
// same fields. Names the parser rejects are simply skipped — the property
// under test is "accepted implies faithfully representable".
func FuzzParseWALObjectName(f *testing.F) {
	f.Add("WAL/12_pg_xlog/000000010000000000000000_0")
	f.Add("WAL/1__2")
	f.Add("WAL/-3_a_b_c_-9")
	f.Add("WAL/007_x_08")
	f.Add("not a wal name")
	f.Fuzz(func(t *testing.T, name string) {
		ts, file, off, err := ParseWALObjectName(name)
		if err != nil {
			return
		}
		re := WALObjectName(ts, file, off)
		ts2, file2, off2, err := ParseWALObjectName(re)
		if err != nil {
			t.Fatalf("re-encoded name %q (from %q) does not parse: %v", re, name, err)
		}
		if ts2 != ts || file2 != file || off2 != off {
			t.Fatalf("round trip changed fields: %q -> (%d,%q,%d) -> %q -> (%d,%q,%d)",
				name, ts, file, off, re, ts2, file2, off2)
		}
	})
}

// FuzzParseDBObjectName checks the same accepted-implies-round-trips
// property for DB object names, including the .g<gen> and
// .s<part>[.n<count>] suffixes (the retired .p<part> seeds must be rejected).
func FuzzParseDBObjectName(f *testing.F) {
	f.Add("DB/5_dump_123")
	f.Add("DB/5_checkpoint_123")
	f.Add("DB/5_dump_123.g2")
	f.Add("DB/5_dump_123.p0")
	f.Add("DB/5_dump_123.g2.p7")
	f.Add("DB/5_dump_123.p-2")
	f.Add("DB/5_dump_123.g0")
	f.Add("DB/-1_dump_-2")
	f.Add("DB/5_dump_123.s0")
	f.Add("DB/5_dump_123.g2.s4")
	f.Add("DB/5_dump_123.s2.n3")
	f.Add("DB/5_dump_123.s0.n3")
	f.Add("DB/5_dump_123.n2")
	f.Add("DB/5_dump_123.s1.n1")
	// Delta names: the .b<ts>-<gen> base pointer sits between size and .g.
	f.Add("DB/9_delta_123.b5-0")
	f.Add("DB/9_delta_123.b5-2.g1")
	f.Add("DB/9_delta_123.b5-0.g1.s0.n2")
	f.Add("DB/9_delta_123.b5-0.s1.n2")
	f.Add("DB/9_delta_123.b0-0.p1")
	f.Add("DB/9_delta_123")         // delta without a base: malformed
	f.Add("DB/9_dump_123.b5-0")     // base on a non-delta: malformed
	f.Add("DB/9_delta_123.b-1-0")   // negative base ts: malformed
	f.Add("DB/9_delta_123.b5--1")   // negative base gen: malformed
	f.Add("DB/9_delta_123.b5")      // base without gen: malformed
	f.Add("DB/9_delta_123.g1.b5-0") // suffixes out of order: malformed
	f.Fuzz(func(t *testing.T, name string) {
		n, err := ParseDBObjectName(name)
		if err != nil {
			return
		}
		if n.Gen < 0 || n.Part < -1 ||
			n.Count < 0 || (n.Count > 0 && (n.Count < 2 || n.Part != n.Count-1)) ||
			n.HasBase != (n.Type == Delta) ||
			(n.HasBase && (n.BaseTs < 0 || n.BaseGen < 0)) ||
			(!n.HasBase && (n.BaseTs != 0 || n.BaseGen != 0)) {
			t.Fatalf("parse %q produced unencodable fields %+v", name, n)
		}
		re := n.String()
		n2, err := ParseDBObjectName(re)
		if err != nil {
			t.Fatalf("re-encoded name %q (from %q) does not parse: %v", re, name, err)
		}
		if n2 != n {
			t.Fatalf("round trip changed fields: %q -> %+v -> %q -> %+v", name, n, re, n2)
		}
	})
}

// FuzzDecodeWrites checks that the write-list wire format is canonical:
// any buffer DecodeWrites accepts re-encodes to the identical bytes, and
// the decoder never panics or over-allocates on adversarial input (a
// forged count field must not size an allocation).
func FuzzDecodeWrites(f *testing.F) {
	f.Add([]byte("GJWL"))
	f.Add(EncodeWrites(nil))
	f.Add(EncodeWrites([]FileWrite{{Path: "base/1", Offset: 42, Data: []byte("hello")}}))
	f.Add(EncodeWrites([]FileWrite{
		{Path: "", Offset: -1, Data: nil},
		{Path: "pg_xlog/0", Offset: 1 << 40, Data: bytes.Repeat([]byte{7}, 32), Whole: true},
	}))
	// A packed multi-write body as the Aggregator now produces them: one
	// object carrying a whole batch of small scattered writes (the seed
	// steers the fuzzer toward long write lists).
	packed := PackWrites([]FileWrite{
		{Path: "pg_xlog/0001", Offset: 0, Data: []byte("commit-a")},
		{Path: "pg_xlog/0002", Offset: 8192, Data: []byte("commit-b")},
		{Path: "base/16384/2608", Offset: 0, Data: bytes.Repeat([]byte{3}, 24)},
		{Path: "pg_xlog/0001", Offset: 512, Data: []byte("c")},
		{Path: "pg_xlog/0003", Offset: 1 << 33, Data: []byte("tail"), Whole: false},
	}, 1<<20)
	f.Add(EncodeWrites(packed[0]))
	// Forged count: header claims 4 billion entries in a 12-byte buffer.
	forged := append([]byte("GJWL"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(forged)
	// A zero fill, as the Aggregator cuts a fresh WAL page's tail; one
	// after a whole-file entry; and one forging a 2^62-byte run, which
	// must be rejected before anything is sized by it.
	f.Add(EncodeWrites([]FileWrite{
		{Path: "pg_wal/0001", Offset: 8192, Data: []byte("commit-a")},
		{Path: "pg_wal/0001", Offset: 8200, Data: make([]byte, 8184), Zero: true},
	}))
	f.Add(EncodeWrites([]FileWrite{
		{Path: "base/1", Data: []byte("whole"), Whole: true},
		{Path: "base/1", Offset: 5, Data: make([]byte, 64), Zero: true},
	}))
	f.Add(appendEntryHeader(append([]byte("GJWL"), 1, 0, 0, 0), flagZero, "", 0, 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		writes, err := DecodeWrites(data)
		if err != nil {
			return
		}
		re := EncodeWrites(writes)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		writes2, err := DecodeWrites(re)
		if err != nil {
			t.Fatalf("re-encoded buffer does not decode: %v", err)
		}
		if !reflect.DeepEqual(writes, writes2) {
			t.Fatalf("round trip changed writes: %+v vs %+v", writes, writes2)
		}
	})
}
