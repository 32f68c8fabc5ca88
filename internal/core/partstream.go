package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// This file is the streaming DB-object data path: instead of snapshotting
// the whole database into memory, encoding it into one buffer and sealing
// it once (O(DB) resident bytes, serial CPU), a dump or checkpoint is
// first *planned* — split into ≤ partBudget payload slices, each entry
// either in-memory bytes or a lazy (path, offset, length) range of a local
// file — and the plan is then executed by a bounded worker pool: each
// worker lays its part out as a partSource (its file ranges read when the
// part starts), seals it with sealer.SealFrom, one 1 MiB segment at a
// time, and PUTs it. No encoded copy of a part exists: a checkpoint page
// is held once, as collected, until its segment is deflated. At most
// CheckpointUploaders parts are in flight, so what the stream adds — file
// chunks not yet deflated and sealed parts not yet PUT — stays under
// CheckpointUploaders × (payload + sealed) ≤ 2 × CheckpointUploaders ×
// MaxObjectSize regardless of database size. Sealing parallelizes across
// the parts and, inside the sealer, across each part's segments: a
// one-part object (every incremental checkpoint) uses every idle core.

// planEntry is one slice of a planned part: either carries its bytes
// (data non-nil — collected checkpoint writes, a run of contiguous ones as
// one entry of several pieces, and dump extras) or names a range of a local
// file to be read when its part starts (data nil).
type planEntry struct {
	path   string
	offset int64
	length int64
	whole  bool
	data   [][]byte
}

// partHeaderSize is the write-list header; entryHeader sizes each entry's.
const partHeaderSize = 8

// partBudget is the payload budget per part: enough below MaxObjectSize
// that a sealed part (envelope + MAC + IV + zlib stored-block worst case)
// still fits in one cloud object.
func partBudget(maxObj int64) int64 {
	if maxObj <= 0 {
		return 1 << 20 // no object-size cap: any finite budget works
	}
	b := maxObj - maxObj/32 - 128
	if b < 512 {
		b = 512
	}
	return b
}

// splitEntry cuts e after n payload bytes. The head keeps e's whole flag
// (a truncating whole write recreates the file's first n bytes); the tail
// continues positionally so that applying head then tail reassembles the
// original range in order.
func splitEntry(e planEntry, n int64) (head, tail planEntry) {
	head, tail = e, e
	head.length = n
	tail.offset = e.offset + n
	tail.length = e.length - n
	tail.whole = false
	if e.data != nil {
		head.data, tail.data = cutPieces(e.data, n)
	}
	return head, tail
}

// cutPieces splits a piece list after n bytes; the two lists share no
// backing array.
func cutPieces(pieces [][]byte, n int64) (head, tail [][]byte) {
	for i, p := range pieces {
		if n <= int64(len(p)) {
			return append(pieces[:i:i], p[:n]), append([][]byte{p[n:]}, pieces[i+1:]...)
		}
		n -= int64(len(p))
	}
	return pieces, nil
}

// planParts greedily packs entries into parts of at most budget encoded
// bytes, splitting entries that do not fit (the head chunk fills the
// current part exactly). Always returns at least one part so that even an
// empty database produces a dump object.
func planParts(entries []planEntry, budget int64) [][]planEntry {
	var parts [][]planEntry
	var cur []planEntry
	curBytes := int64(partHeaderSize)
	flush := func() {
		parts = append(parts, cur)
		cur = nil
		curBytes = partHeaderSize
	}
	for _, e := range entries {
		overhead := int64(entryHeader(e.path))
		rem := e
		for {
			room := budget - curBytes - overhead
			if rem.length <= room || (len(cur) == 0 && room < 1) {
				// Fits — or cannot be made to fit (overhead alone exceeds
				// the budget): take it whole rather than degenerate into
				// byte-sized parts.
				cur = append(cur, rem)
				curBytes += overhead + rem.length
				break
			}
			if room < 1 {
				flush()
				continue
			}
			head, tail := splitEntry(rem, room)
			cur = append(cur, head)
			flush()
			rem = tail
		}
	}
	if len(cur) > 0 || len(parts) == 0 {
		flush()
	}
	return parts
}

// entriesFromWrites converts an in-memory write list (a finished
// checkpoint collection, merged) into plan entries. A run of contiguous
// writes of one file becomes one entry of several pieces: the wire bytes
// joinRuns would build, without joining them.
func entriesFromWrites(writes []FileWrite) []planEntry {
	var entries []planEntry
	for _, w := range writes {
		if k := len(entries) - 1; k >= 0 && entries[k].path == w.Path && entries[k].offset+entries[k].length == w.Offset {
			entries[k].data = append(entries[k].data, w.Data)
			entries[k].length += int64(len(w.Data))
			continue
		}
		entries = append(entries, planEntry{path: w.Path, offset: w.Offset, length: int64(len(w.Data)), whole: w.Whole, data: [][]byte{w.Data}})
	}
	return entries
}

// extrasEntries reads the processor's extra regions (e.g. the InnoDB log
// header) eagerly — they live in WAL-class files that keep moving while
// the object streams, so their bytes must be captured now, while the DBMS
// is paused inside its checkpoint-end write. A missing extras file just
// means no WAL was written yet; every other error is a real read failure
// that would silently truncate the object.
func extrasEntries(fsys vfs.FS, proc dbevent.Processor) ([]planEntry, error) {
	var entries []planEntry
	for _, region := range proc.DumpExtras() {
		f, err := fsys.OpenFile(region.Path, os.O_RDONLY, 0)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, err
		}
		buf := make([]byte, region.Length)
		n, err := f.ReadAt(buf, region.Offset)
		f.Close()
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
		if n > 0 {
			entries = append(entries, planEntry{path: region.Path, offset: region.Offset, length: int64(n), data: [][]byte{buf[:n]}})
		}
	}
	return entries, nil
}

// planDump plans a full dump (Algorithm 3 line 10) as the delta of every
// data-class file marked whole: lazy whole-file entries whose bytes the
// uploader reads chunk by chunk, plus the eager extras regions.
func planDump(fsys vfs.FS, proc dbevent.Processor, budget int64) ([][]planEntry, error) {
	files, err := vfs.Walk(fsys, "")
	if err != nil {
		return nil, err
	}
	whole := make(map[string]*dirtyFile)
	for _, p := range files {
		if proc.FileKind(p) == dbevent.KindData {
			whole[p] = &dirtyFile{Whole: true}
		}
	}
	return planDelta(fsys, proc, whole, budget)
}

// planDelta plans a delta object from the dirty map accumulated since the
// last chain element: lazy entries covering only the dirtied page ranges
// of each file (clamped to the file's current size — a range past EOF was
// superseded by a truncate, which forces a whole-file entry anyway), plus
// the eager extras regions every chain element recaptures (see
// extrasEntries). It runs at the consistent cut point, inside the DBMS's
// checkpoint-end write, and reads no data-file bytes itself.
func planDelta(fsys vfs.FS, proc dbevent.Processor, dirty map[string]*dirtyFile, budget int64) ([][]planEntry, error) {
	paths := make([]string, 0, len(dirty))
	for p := range dirty {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var entries []planEntry
	for _, p := range paths {
		fi, err := fsys.Stat(p)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				// The file vanished after being dirtied; checkpoints do not
				// replicate deletions either, so the delta simply has nothing
				// to ship for it.
				continue
			}
			return nil, err
		}
		size := fi.Size()
		df := dirty[p]
		if df.Whole {
			entries = append(entries, planEntry{path: p, length: size, whole: true})
			continue
		}
		for _, r := range df.Ranges {
			off, end := r.Off, r.End
			if end > size {
				end = size
			}
			if off >= end {
				continue
			}
			entries = append(entries, planEntry{path: p, offset: off, length: end - off})
		}
	}
	extras, err := extrasEntries(fsys, proc)
	if err != nil {
		return nil, err
	}
	return planParts(append(entries, extras...), budget), nil
}

// planBytes returns the total payload a plan will ship (lazy ranges
// included) — what the fold decision weighs against the local database
// size — and the part of it held in memory (a lazy entry costs nothing
// until a worker streams it).
func planBytes(parts [][]planEntry) (total, inMem int64) {
	for _, part := range parts {
		for _, e := range part {
			total += e.length
			if e.data != nil {
				inMem += e.length
			}
		}
	}
	return total, inMem
}

// planLazyPaths is the set of files a plan reads at upload time — the
// files the dump gate must freeze until the plan's reads complete. Eager
// entries (extras, collected writes) carry their bytes already and need
// no freezing.
func planLazyPaths(parts [][]planEntry) map[string]struct{} {
	paths := make(map[string]struct{})
	for _, part := range parts {
		for _, e := range part {
			if e.data == nil {
				paths[e.path] = struct{}{}
			}
		}
	}
	return paths
}

// partSource is one part's payload, the write list DecodeWrites reads, as
// pieces in payload order: the encoded headers, collected write data and
// the ≤ 1 MiB chunks its file ranges were read into when the part started.
// fill copies by payload offset and drops each piece once every byte of it
// is copied, so the part drains segment by segment as the sealer deflates.
type partSource struct {
	mu      sync.Mutex
	pieces  []sourcePiece // ordered by off, none empty
	n       int           // payload size
	tracker *streamTracker
}

type sourcePiece struct {
	off, left int // payload offset; bytes not yet copied
	data      []byte
	read      bool // a file chunk: counted in the tracker until dropped
}

func (s *partSource) add(b []byte, read bool) {
	if len(b) > 0 {
		s.pieces = append(s.pieces, sourcePiece{off: s.n, left: len(b), data: b, read: read})
		s.n += len(b)
	}
}

// fill is the part's sealer.SealFrom fill function.
func (s *partSource) fill(dst []byte, off int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := sort.Search(len(s.pieces), func(i int) bool { return s.pieces[i].off > off }) - 1; len(dst) > 0; i++ {
		p := &s.pieces[i]
		k := copy(dst, p.data[off-p.off:])
		dst, off, p.left = dst[k:], off+k, p.left-k
		if p.left == 0 {
			s.drop(p)
		}
	}
}

// view is the part's sealer.SealFrom view: payload bytes [off, end) in
// place when one piece holds them all (a file chunk cut at segment
// boundaries holds its whole segment), else nil.
func (s *partSource) view(off, end int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &s.pieces[sort.Search(len(s.pieces), func(i int) bool { return s.pieces[i].off > off })-1]
	if end > p.off+len(p.data) {
		return nil
	}
	b := p.data[off-p.off : end-p.off]
	if p.left -= end - off; p.left == 0 {
		s.drop(p)
	}
	return b
}

func (s *partSource) drop(p *sourcePiece) {
	if p.read {
		s.tracker.sub(int64(len(p.data)))
	}
	p.data = nil
}

// close drops every piece left, e.g. of a part whose seal was cancelled.
func (s *partSource) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.pieces {
		s.drop(&s.pieces[i])
	}
}

// source lays out one part's payload and reads its file ranges in chunks
// that end at the sealer's 1 MiB segment boundaries (see view).
func (u *partUploader) source(entries []planEntry) (*partSource, error) {
	hdr := partHeaderSize
	for _, e := range entries {
		hdr += entryHeader(e.path)
	}
	head := make([]byte, 0, hdr) // never grows: every piece cut from it stays valid
	head = append(head, writeListMagic...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(entries)))
	src := &partSource{tracker: u.tracker}
	src.add(head, false)
	var (
		curFile vfs.File
		curPath string
		read    int64
	)
	defer func() {
		if curFile != nil {
			curFile.Close()
		}
	}()
	for _, e := range entries {
		var flags byte
		if e.whole {
			flags = flagWhole
		}
		at := len(head)
		head = appendEntryHeader(head, flags, e.path, e.offset, e.length)
		src.add(head[at:], false)
		for _, d := range e.data {
			src.add(d, false)
		}
		if e.data != nil || e.length == 0 {
			continue
		}
		if curFile == nil || curPath != e.path {
			if curFile != nil {
				curFile.Close()
			}
			f, err := u.fs.OpenFile(e.path, os.O_RDONLY, 0)
			if err != nil {
				return nil, err
			}
			curFile, curPath = f, e.path
		}
		for done := int64(0); done < e.length; {
			chunk := make([]byte, min(e.length-done, int64(1<<20-src.n%(1<<20))))
			n, err := curFile.ReadAt(chunk, e.offset+done)
			if done += int64(n); n != len(chunk) {
				if err == nil || errors.Is(err, io.EOF) {
					err = fmt.Errorf("core: %s shrank under a streaming dump (read %d of %d at offset %d)",
						e.path, done, e.length, e.offset)
				}
				return nil, err
			}
			src.add(chunk, true)
			read += int64(n)
		}
	}
	u.tracker.add(read)
	return src, nil
}

// streamTracker accounts the bytes resident in the streaming data path —
// file chunks read but not yet deflated, and sealed parts not yet PUT —
// with a high-water mark: the deterministic measurement behind the
// O(CheckpointUploaders × MaxObjectSize) memory bound (GC-noise-free,
// unlike heap sampling).
type streamTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

func (t *streamTracker) add(n int64) {
	v := t.cur.Add(n)
	for p := t.peak.Load(); v > p && !t.peak.CompareAndSwap(p, v); p = t.peak.Load() {
	}
}

func (t *streamTracker) sub(n int64) { t.cur.Add(-n) }

// partUploader executes a part plan: read→seal→PUT per part, up to
// CheckpointUploaders parts in flight. Safe for concurrent use by one
// upload at a time per object (the checkpointer serializes objects; Boot
// runs alone).
type partUploader struct {
	fs      vfs.FS
	io      *cloudIO // also the source of Params and the clock
	tracker *streamTracker

	// Optional instruments (nil when observability is disabled).
	sealHist *obs.Histogram
	putHist  *obs.Histogram
}

// bootWAL is one Boot WAL object: length bytes of Filename from Offset.
type bootWAL struct {
	WALObjectInfo
	length int64
}

// upload streams every planned part and returns ident completed with the
// object's sealed Size (and, when split, PartSizes) — the record the view
// takes. ident carries the object's identity — (Ts, Gen, Type)
// plus the base linkage when the object is a delta — from which every
// part name is built. It consumes parts: a part's entries are dropped once
// its source holds them, so what the part pins drains as it seals.
// readsDone (optional) fires once, as soon as the last part's local reads
// completed — the signal that the database files are no longer needed and
// frozen writers may resume; on failure the caller's own release path
// must cover it. A single-part object is uploaded under the plain unsplit
// name. Boot's WAL objects (wal, each given its sealed Size once it
// landed) are jobs of the same pool, dispatched first and PUT in the
// Safety class; a part may seal beside them but is PUT only once all of
// them landed. Once ctx is done no part is sealed or PUT; a failed upload
// also returns the names it tried to PUT.
func (u *partUploader) upload(ctx context.Context, ident DBObjectInfo,
	parts [][]planEntry, readsDone func(), wal []bootWAL) (DBObjectInfo, []string, error) {
	ts, gen := ident.Ts, ident.Gen
	sizes := make([]int64, len(parts))
	tried := make([]string, len(parts))
	var readsLeft, walLeft atomic.Int64
	readsLeft.Store(int64(len(parts)))
	walLeft.Store(int64(len(wal)))
	landed := make(chan struct{}) // closed once every WAL object landed
	if len(wal) == 0 {
		close(landed)
	}
	ctx = withClass(ctx, classBulk) // once per object, not per part
	err := runLimited(ctx, u.io.clk, u.io.params.CheckpointUploaders, len(wal)+len(parts), func(ctx context.Context, j int) error {
		i := j - len(wal)
		var entries []planEntry
		if i < 0 {
			entries = []planEntry{{path: wal[j].Filename, offset: wal[j].Offset, length: wal[j].length}}
		} else {
			entries, parts[i] = parts[i], nil
		}
		src, err := u.source(entries)
		if err != nil {
			return fmt.Errorf("core: build part ts=%d gen=%d job=%d: %w", ts, gen, j, err)
		}
		if i >= 0 && readsLeft.Add(-1) == 0 && readsDone != nil {
			readsDone()
		}
		sealStart := u.io.clk.Now()
		var sealed []byte
		if err = ctx.Err(); err == nil {
			sealed, err = u.io.seal.SealFrom(ctx, src.n, src.fill, src.view)
		}
		src.close()
		if err != nil {
			return fmt.Errorf("core: seal part ts=%d gen=%d job=%d: %w", ts, gen, j, err)
		}
		u.tracker.add(int64(len(sealed)))
		defer u.tracker.sub(int64(len(sealed)))
		if u.sealHist != nil {
			u.sealHist.ObserveDuration(u.io.clk.Since(sealStart))
		}
		if i < 0 {
			w := &wal[j]
			name := WALObjectName(w.Ts, w.Filename, w.Offset)
			if err := u.io.put(ctx, classSafety, name, sealed); err != nil {
				return fmt.Errorf("core: boot upload %s: %w", name, err)
			}
			if w.Size = int64(len(sealed)); walLeft.Add(-1) == 0 {
				simclock.Close(u.io.clk, landed)
			}
			return nil
		}
		sizes[i] = int64(len(sealed))
		part, count := -1, 0
		if len(parts) > 1 {
			part = i
			if i == len(parts)-1 {
				count = len(parts)
			}
		}
		name := ident.name(int64(len(sealed)), part, count).String()
		if _, _, err = simclock.Recv(ctx, u.io.clk, landed); err == nil {
			err = ctx.Err()
		}
		putStart := u.io.clk.Now()
		if err == nil {
			tried[i] = name
			err = u.io.put(ctx, classBulk, name, sealed)
		}
		if err != nil {
			return fmt.Errorf("core: upload %s: %w", name, err)
		}
		if u.putHist != nil {
			u.putHist.ObserveDuration(u.io.clk.Since(putStart))
		}
		return nil
	})
	if err != nil {
		return ident, slices.DeleteFunc(tried, func(n string) bool { return n == "" }), err
	}
	for _, size := range sizes {
		ident.Size += size
	}
	if len(parts) > 1 {
		ident.PartSizes = sizes
	}
	return ident, nil, nil
}
