// Package core implements Ginja itself: the commit pipeline (Batch/Safety
// control, aggregation, parallel uploads, consecutive-timestamp release —
// paper Algorithm 2), the checkpointer with dump/incremental decision and
// garbage collection (Algorithm 3), the cloud data model (§5.2), and the
// Boot/Reboot/Recovery procedures (Algorithm 1).
package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// DBObjectType distinguishes the two kinds of DB objects (§5.2).
type DBObjectType string

// DB object types.
const (
	// Dump is a full copy of all relevant database files.
	Dump DBObjectType = "dump"
	// Checkpoint is an incremental set of database-file writes.
	Checkpoint DBObjectType = "checkpoint"
	// Delta is a sparse copy of only the byte ranges dirtied since the
	// chain predecessor named by its ".b<ts>-<gen>" suffix. A delta
	// supersedes every checkpoint between that predecessor and itself: the
	// chain (dump base + ordered deltas) alone materializes the database
	// state at the delta's timestamp.
	Delta DBObjectType = "delta"
)

// Object name prefixes in the cloud.
const (
	walPrefix = "WAL/"
	dbPrefix  = "DB/"
)

// WALObjectName formats WAL/<ts>_<filename>_<offset> (§5.2). ts establishes
// the total order, filename is the local WAL segment the content belongs
// to, offset is its position in that segment. For packed multi-write
// objects (PackWrites) the name describes only the first write in the
// body; recovery always applies the full decoded write list.
func WALObjectName(ts int64, filename string, offset int64) string {
	return fmt.Sprintf("%s%d_%s_%d", walPrefix, ts, filename, offset)
}

// ParseWALObjectName inverts WALObjectName. Filenames may themselves
// contain underscores and slashes; ts is everything before the first '_'
// and offset everything after the last.
func ParseWALObjectName(name string) (ts int64, filename string, offset int64, err error) {
	rest, ok := strings.CutPrefix(name, walPrefix)
	if !ok {
		return 0, "", 0, fmt.Errorf("core: %q is not a WAL object name", name)
	}
	first := strings.IndexByte(rest, '_')
	last := strings.LastIndexByte(rest, '_')
	if first < 0 || last <= first {
		return 0, "", 0, fmt.Errorf("core: malformed WAL object name %q", name)
	}
	ts, err = strconv.ParseInt(rest[:first], 10, 64)
	if err != nil {
		return 0, "", 0, fmt.Errorf("core: WAL object name %q: %w", name, err)
	}
	offset, err = strconv.ParseInt(rest[last+1:], 10, 64)
	if err != nil {
		return 0, "", 0, fmt.Errorf("core: WAL object name %q: %w", name, err)
	}
	return ts, rest[first+1 : last], offset, nil
}

// DBName is the parsed form of a DB object name. A DB object is one or
// more independently encoded, independently sealed write lists:
//
//   - Unsplit (Part < 0): the plain DB/<ts>_<type>_<size> name is the
//     whole object and Size its sealed size.
//   - Split: Size is the sealed size of THIS part (".s<part>"), and the
//     final part — the upload's commit marker — additionally carries the
//     total part count (".n<count>"). Parts open and decode individually.
//
// Delta objects additionally carry a ".b<baseTs>-<baseGen>" suffix naming
// the chain predecessor (a dump or an earlier delta). HasBase is set if
// and only if Type is Delta — a delta without linkage, or linkage on any
// other type, is malformed.
type DBName struct {
	Ts   int64
	Gen  int
	Type DBObjectType
	Size int64
	// Part is the part index (".s<part>"), -1 for unsplit objects.
	Part int
	// Count is the total number of parts, > 0 only on the final part
	// (".n<count>", count ≥ 2).
	Count int
	// BaseTs/BaseGen name the chain predecessor of a Delta object;
	// meaningful only when HasBase is set.
	BaseTs  int64
	BaseGen int
	HasBase bool
}

// String formats the cloud object key for this name.
func (n DBName) String() string {
	base := fmt.Sprintf("%s%d_%s_%d", dbPrefix, n.Ts, n.Type, n.Size)
	if n.HasBase {
		base = fmt.Sprintf("%s.b%d-%d", base, n.BaseTs, n.BaseGen)
	}
	if n.Gen > 0 {
		base = fmt.Sprintf("%s.g%d", base, n.Gen)
	}
	switch {
	case n.Part >= 0 && n.Count > 0:
		return fmt.Sprintf("%s.s%d.n%d", base, n.Part, n.Count)
	case n.Part >= 0:
		return fmt.Sprintf("%s.s%d", base, n.Part)
	}
	return base
}

// DBObjectName formats DB/<ts>_<type>_<size> (§5.2), the name of an
// unsplit object. The optional ".g<gen>" suffix disambiguates multiple DB
// objects that share a timestamp (two checkpoints with no commit in
// between both carry the ts of the same last WAL object — the paper's
// naming tells them apart only by size, which is not guaranteed unique);
// gen 0 produces the paper's plain format.
func DBObjectName(ts int64, gen int, typ DBObjectType, size int64) string {
	return DBName{Ts: ts, Gen: gen, Type: typ, Size: size, Part: -1}.String()
}

// DBPartName formats the name of one part of an object split at the
// maximum object size (§5.2 footnote: 20 MB by default): size is the
// sealed size of this part alone, and count (the total number of parts,
// ≥ 2) is carried only by the final part, as the upload's commit marker.
func DBPartName(ts int64, gen int, typ DBObjectType, size int64, part, count int) string {
	return DBName{Ts: ts, Gen: gen, Type: typ, Size: size, Part: part, Count: count}.String()
}

// ParseDBObjectName inverts DBName.String. Only values the emitters can
// produce count as suffixes (part ≥ 0, count ≥ 2, gen > 0, base ts ≥ 0
// and base gen ≥ 0); anything else — ".s-2", ".g0", ".n1", ".b3", the
// retired ".p<N>" — is not a suffix and must fail the field parse below
// rather than silently round-trip wrong.
func ParseDBObjectName(name string) (DBName, error) {
	n := DBName{Part: -1}
	rest, ok := strings.CutPrefix(name, dbPrefix)
	if !ok {
		return n, fmt.Errorf("core: %q is not a DB object name", name)
	}
	if i := strings.LastIndex(rest, ".n"); i >= 0 {
		c, cerr := strconv.Atoi(rest[i+2:])
		if cerr == nil && c >= 2 {
			n.Count = c
			rest = rest[:i]
		}
	}
	if i := strings.LastIndex(rest, ".s"); i >= 0 {
		p, perr := strconv.Atoi(rest[i+2:])
		if perr == nil && p >= 0 {
			n.Part = p
			rest = rest[:i]
		}
	}
	if i := strings.LastIndex(rest, ".g"); i >= 0 {
		g, gerr := strconv.Atoi(rest[i+2:])
		if gerr == nil && g > 0 {
			n.Gen = g
			rest = rest[:i]
		}
	}
	if i := strings.LastIndex(rest, ".b"); i >= 0 {
		if tsStr, genStr, ok := strings.Cut(rest[i+2:], "-"); ok {
			bts, terr := strconv.ParseInt(tsStr, 10, 64)
			bg, gerr := strconv.Atoi(genStr)
			if terr == nil && gerr == nil && bts >= 0 && bg >= 0 {
				n.BaseTs, n.BaseGen, n.HasBase = bts, bg, true
				rest = rest[:i]
			}
		}
	}
	// The count marker is only valid as ".s<part>.n<count>" with the final
	// part index; any other combination is not a name we emit.
	if n.Count > 0 && n.Part != n.Count-1 {
		return DBName{Part: -1}, fmt.Errorf("core: malformed DB object name %q", name)
	}
	fields := strings.Split(rest, "_")
	if len(fields) != 3 {
		return DBName{Part: -1}, fmt.Errorf("core: malformed DB object name %q", name)
	}
	ts, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return DBName{Part: -1}, fmt.Errorf("core: DB object name %q: %w", name, err)
	}
	n.Ts = ts
	n.Type = DBObjectType(fields[1])
	if n.Type != Dump && n.Type != Checkpoint && n.Type != Delta {
		return DBName{Part: -1}, fmt.Errorf("core: DB object name %q: unknown type %q", name, n.Type)
	}
	// Base linkage is what makes a delta a delta: a delta without it could
	// not be chained, and linkage on a dump/checkpoint is not a name we
	// emit.
	if (n.Type == Delta) != n.HasBase {
		return DBName{Part: -1}, fmt.Errorf("core: malformed DB object name %q", name)
	}
	n.Size, err = strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return DBName{Part: -1}, fmt.Errorf("core: DB object name %q: %w", name, err)
	}
	return n, nil
}

// FileWrite is one replicated file mutation: either a positional write or,
// when Whole is set (dump entries), the complete content of a file.
type FileWrite struct {
	Path   string
	Offset int64
	Data   []byte
	// Whole marks a dump entry: on recovery the file is truncated to
	// exactly this content.
	Whole bool
	// Zero marks a zero fill: Data is all zero and ships as its length
	// alone. A decoded zero fill's Data aliases zeroBlock.
	Zero bool
}

// End returns the byte offset just past this write.
func (w FileWrite) End() int64 { return w.Offset + int64(len(w.Data)) }

// Write-list wire format:
//
//	magic(4) "GJWL" | count(4) | entries...
//	entry: flags(1) | pathLen(2) | path | offset(8) | dataLen(8) | data
//
// flags is 0 for a positional write, 1 (Whole) for a dump entry's whole
// file and 2 (Zero) for a zero fill: dataLen zero bytes at offset, of
// which no data byte follows. A zero fill is 1 to zeroBlockSize bytes
// long; the encoder cuts a longer Zero write into block-sized entries,
// so a decoder never sizes anything by a length the object claims. Flag
// values 4 and 8 are reserved for the namespace's remove and rename
// entries (ROADMAP item 2); every other value is malformed. The
// Aggregator emits a zero fill for a WAL write's trailing zero run longer
// than the entry header it costs, and only when the sealer does not
// compress: deflate already shrinks a zero run below a second header
// (DESIGN.md §12).
const writeListMagic = "GJWL"

const (
	flagWhole = 1
	flagZero  = 2
)

// entryHeader is the size of an entry's fixed fields plus its path.
func entryHeader(path string) int { return 1 + 2 + len(path) + 8 + 8 }

// zeroBlockSize caps one zero-fill entry.
const zeroBlockSize = 64 << 10

// zeroBlock is what every decoded zero fill's Data aliases. It is never
// written: appliers copy from it, and its slices are capacity-clipped.
var zeroBlock [zeroBlockSize]byte

// zeroTail counts the zero bytes data ends with.
func zeroTail(data []byte) int {
	n := 0
	for n < len(data) {
		k := common(data[:len(data)-n], zeroBlock[:], true)
		n += k
		if k < zeroBlockSize {
			break
		}
	}
	return n
}

// ErrBadWriteList reports a malformed serialized write list.
var ErrBadWriteList = errors.New("core: malformed write list")

// EncodeWrites serializes a write list for upload.
func EncodeWrites(writes []FileWrite) []byte {
	return EncodeWritesInto(nil, writes)
}

// EncodeWritesInto appends the serialized write list to buf (usually
// scratch[:0]) and returns the extended slice, letting steady-state
// encoders reuse one buffer instead of allocating per object. The caller
// must not hand the result to anything that retains it — Sealer.Seal does
// not.
func EncodeWritesInto(buf []byte, writes []FileWrite) []byte {
	size, count := 8, 0
	for _, w := range writes {
		if w.Zero {
			n := (len(w.Data) + zeroBlockSize - 1) / zeroBlockSize
			size, count = size+n*entryHeader(w.Path), count+n
			continue
		}
		size, count = size+entryHeader(w.Path)+len(w.Data), count+1
	}
	if cap(buf)-len(buf) < size {
		grown := make([]byte, len(buf), len(buf)+size)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, writeListMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	for _, w := range writes {
		if w.Zero {
			for at := 0; at < len(w.Data); at += zeroBlockSize {
				buf = appendEntryHeader(buf, flagZero, w.Path, w.Offset+int64(at), int64(min(zeroBlockSize, len(w.Data)-at)))
			}
			continue
		}
		var flags byte
		if w.Whole {
			flags = flagWhole
		}
		buf = appendEntryHeader(buf, flags, w.Path, w.Offset, int64(len(w.Data)))
		buf = append(buf, w.Data...)
	}
	return buf
}

// appendEntryHeader appends an entry's fields up to its data.
func appendEntryHeader(buf []byte, flags byte, path string, off, dataLen int64) []byte {
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(path)))
	buf = append(buf, path...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	return binary.LittleEndian.AppendUint64(buf, uint64(dataLen))
}

// DecodeWrites parses a serialized write list. Every Data in the result is
// a capacity-clipped sub-slice of buf, or of zeroBlock for a zero fill,
// not a copy: the list is valid while buf is unmodified (every caller
// applies it and drops it before buf).
func DecodeWrites(buf []byte) ([]FileWrite, error) {
	if len(buf) < 8 || string(buf[:4]) != writeListMagic {
		return nil, ErrBadWriteList
	}
	count := int(binary.LittleEndian.Uint32(buf[4:8]))
	// The smallest entry (empty path, no data) is 19 bytes, so a count
	// the buffer cannot possibly hold is malformed — and must not size an
	// allocation (a 4-byte header would otherwise demand gigabytes).
	if count > (len(buf)-8)/entryHeader("") {
		return nil, ErrBadWriteList
	}
	writes := make([]FileWrite, 0, count)
	off := 8
	for i := 0; i < count; i++ {
		if off+3 > len(buf) {
			return nil, ErrBadWriteList
		}
		flags := buf[off]
		if flags != 0 && flags != flagWhole && flags != flagZero {
			return nil, ErrBadWriteList
		}
		pathLen := int(binary.LittleEndian.Uint16(buf[off+1 : off+3]))
		off += 3
		if off+pathLen+16 > len(buf) {
			return nil, ErrBadWriteList
		}
		p := string(buf[off : off+pathLen])
		off += pathLen
		wOff := int64(binary.LittleEndian.Uint64(buf[off : off+8]))
		dataLen := binary.LittleEndian.Uint64(buf[off+8 : off+16])
		off += 16
		if flags == flagZero {
			// An empty zero fill has no canonical encoding: the encoder
			// emits no entry for it.
			if dataLen == 0 || dataLen > zeroBlockSize {
				return nil, ErrBadWriteList
			}
			writes = append(writes, FileWrite{Path: p, Offset: wOff, Data: zeroBlock[:dataLen:dataLen], Zero: true})
			continue
		}
		if dataLen > uint64(len(buf)-off) {
			return nil, ErrBadWriteList
		}
		end := off + int(dataLen)
		writes = append(writes, FileWrite{Path: p, Offset: wOff, Data: buf[off:end:end], Whole: flags == flagWhole})
		off = end
	}
	if off != len(buf) {
		return nil, ErrBadWriteList
	}
	return writes, nil
}

// MergeWrites coalesces a sequence of positional writes: overlapping bytes
// are resolved last-writer-wins, and adjacent/contiguous regions of the
// same file are merged into single writes. This is the aggregation of
// Algorithm 2 that lets many commits rewriting the same WAL page collapse
// into one cloud object ("by aggregating them we coalesce many updates in
// a single cloud object upload", §5.3).
//
// The result is ordered by (path, offset), whole-file entries passed
// through untouched after it. Only joined runs are copied: every other
// Data in the result is a sub-slice of the input's.
func MergeWrites(writes []FileWrite) []FileWrite {
	var m mergeScratch
	return m.merge(writes, true)
}

// mergeScratch is the working memory of merge: an owner that merges in a
// loop (the Aggregator) keeps one and allocates nothing in steady state.
// A result is valid until the next merge.
type mergeScratch struct {
	idx  []int32 // positional writes ordered by (path, offset, arrival)
	live []int32 // writes reaching past the sweep position, newest last
	out  []FileWrite
}

// merge is the one write-merging engine: an index sort by (path, offset),
// then one sweep per file that gives every byte to the newest write
// covering it. A surviving stretch of a write is a sub-slice of its Data;
// payload moves only if join is set (MergeWrites' contract; the Aggregator
// leaves contiguous pieces apart and so never copies). Zero-length writes
// change no byte and are dropped. O(n log n) plus, per write, one int32
// shift per older-arrived write still live under it — rewrites of a page
// arrive in order and shift nothing; pages nest a handful deep at most.
func (m *mergeScratch) merge(ws []FileWrite, join bool) []FileWrite {
	idx, live, out := slices.Grow(m.idx[:0], len(ws)), m.live[:0], slices.Grow(m.out[:0], len(ws))
	for i := range ws {
		if !ws[i].Whole && len(ws[i].Data) > 0 {
			idx = append(idx, int32(i))
		}
	}
	slices.SortFunc(idx, func(a, b int32) int {
		wa, wb := &ws[a], &ws[b]
		if wa.Path != wb.Path {
			return strings.Compare(wa.Path, wb.Path)
		}
		if wa.Offset != wb.Offset {
			return cmp.Compare(wa.Offset, wb.Offset)
		}
		return cmp.Compare(a, b)
	})
	var pos int64    // sweep position in the current file
	src := int32(-1) // the write out's last piece was cut from
	for k := 0; k <= len(idx); k++ {
		// The live writes own everything up to where the next write of the
		// file starts — or to their end, at a file boundary.
		until := int64(math.MaxInt64)
		if k < len(idx) && len(live) > 0 && ws[idx[k]].Path == ws[live[0]].Path {
			until = ws[idx[k]].Offset
		}
		for len(live) > 0 && pos < until {
			top := live[len(live)-1]
			w := &ws[top]
			if end := min(w.End(), until); end > pos {
				if src == top { // the same write carrying on: still one sub-slice
					last := &out[len(out)-1]
					last.Data = w.Data[last.Offset-w.Offset : end-w.Offset : end-w.Offset]
				} else {
					out = append(out, FileWrite{Path: w.Path, Offset: pos,
						Data: w.Data[pos-w.Offset : end-w.Offset : end-w.Offset]})
					src = top
				}
				pos = end
			}
			if w.End() <= pos {
				live = live[:len(live)-1]
			}
		}
		if k < len(idx) {
			if len(live) == 0 {
				pos = ws[idx[k]].Offset // a gap, or the next file
			}
			at, _ := slices.BinarySearch(live, idx[k])
			live = slices.Insert(live, at, idx[k])
		}
	}
	if join {
		out = joinRuns(out)
	}
	for i := range ws {
		if ws[i].Whole {
			out = append(out, ws[i])
		}
	}
	m.idx, m.live, m.out = idx, live, out
	return out
}

// joinRuns concatenates, in place, every run of contiguous pieces into one
// write whose buffer is allocated once, at the run's size, clearing each
// consumed entry so a joined piece can be freed before the rest are copied.
func joinRuns(ws []FileWrite) []FileWrite {
	out := ws[:0]
	for i, j := 0, 0; i < len(ws); i = j {
		w, size := ws[i], 0
		for j = i; j < len(ws) && ws[j].Path == w.Path && ws[j].Offset == w.Offset+int64(size); j++ {
			size += len(ws[j].Data)
		}
		if j > i+1 {
			w.Data = make([]byte, 0, size)
			for _, piece := range ws[i:j] {
				w.Data = append(w.Data, piece.Data...)
			}
		}
		out = append(out, w)
		clear(ws[len(out):j])
	}
	return out
}

// PackWrites plans the minimum number of WAL objects for a batch: writes
// are greedily packed, in order, into multi-write objects of up to maxSize
// payload bytes each, and writes larger than maxSize are split into
// maxSize pieces first (the 20 MB object-size cap, §5.2 footnote). The
// wire format has always carried a write *list* per object; packing is
// what turns a batch of B scattered small commits into one seal + one PUT
// instead of one per write-run — the request-count lever the paper's cost
// model (§7.1) divides by B.
//
// Name-vs-body contract: a packed object is named after its FIRST write
// (WAL/<ts>_<filename>_<offset>), but its body is authoritative — recovery
// decodes and applies every write in the list, so the name is only an
// ordering key plus a human-readable hint. maxSize ≤ 0 packs everything
// into a single object.
func PackWrites(writes []FileWrite, maxSize int64) [][]FileWrite {
	return AppendPackWrites(nil, writes, maxSize)
}

// AppendPackWrites is PackWrites appending into dst (usually plan[:0]),
// reusing both the outer slice and the per-object inner slices so a
// steady-state aggregator plans each batch without allocating. The caller
// must consume or copy the plan before the next call with the same dst.
func AppendPackWrites(dst [][]FileWrite, writes []FileWrite, maxSize int64) [][]FileWrite {
	plan := dst[:0]
	var curBytes int64
	add := func(w FileWrite) {
		n := int64(len(w.Data))
		if len(plan) == 0 || (maxSize > 0 && curBytes > 0 && curBytes+n > maxSize) {
			if k := len(plan); k < cap(plan) {
				plan = plan[:k+1]
				plan[k] = plan[k][:0]
			} else {
				plan = append(plan, nil)
			}
			curBytes = 0
		}
		i := len(plan) - 1
		plan[i] = append(plan[i], w)
		curBytes += n
	}
	for _, w := range writes {
		if maxSize <= 0 || int64(len(w.Data)) <= maxSize || w.Whole {
			add(w)
			continue
		}
		// Oversized write: split into maxSize pieces. The pieces stream
		// through add like ordinary writes, so the final partial piece can
		// still share its object with subsequent small writes.
		for start := int64(0); start < int64(len(w.Data)); start += maxSize {
			end := start + maxSize
			if end > int64(len(w.Data)) {
				end = int64(len(w.Data))
			}
			add(FileWrite{Path: w.Path, Offset: w.Offset + start, Data: w.Data[start:end]})
		}
	}
	return plan
}

// SplitWrite chops a single write into pieces of at most maxSize bytes
// (the 20 MB object-size cap, §5.2 footnote).
func SplitWrite(w FileWrite, maxSize int64) []FileWrite {
	if maxSize <= 0 || int64(len(w.Data)) <= maxSize || w.Whole {
		return []FileWrite{w}
	}
	var out []FileWrite
	for start := int64(0); start < int64(len(w.Data)); start += maxSize {
		end := start + maxSize
		if end > int64(len(w.Data)) {
			end = int64(len(w.Data))
		}
		out = append(out, FileWrite{Path: w.Path, Offset: w.Offset + start, Data: w.Data[start:end]})
	}
	return out
}
