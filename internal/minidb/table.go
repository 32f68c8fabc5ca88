package minidb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"sync"

	"github.com/ginja-dr/ginja/internal/vfs"
)

// Table file header (page 0) layout.
const (
	tableMagic      = "MDBTBL01"
	tableHeaderSize = 8 + 4 + 4 + 8 // magic, nBuckets, pageSize, nextPage
)

// DefaultBuckets is the bucket count used when a table is created without
// an explicit size hint.
const DefaultBuckets = 64

// table is one heap file of hash-bucketed slotted pages with overflow
// chains, kept memory-resident in a per-table buffer pool ("all the table
// pages remain in memory until a periodic checkpoint occurs", §4).
type table struct {
	name     string
	path     string
	pageSize int
	nBuckets uint32

	mu       sync.RWMutex
	nextPage uint64           // next free page id for overflow allocation
	pool     map[uint64]*page // buffer pool: pageID -> parsed page
	metaDirt bool             // header page needs rewriting
}

// createTable initialises a new table file with nBuckets hash buckets.
func createTable(fsys vfs.FS, name, filePath string, pageSize int, nBuckets uint32) (*table, error) {
	if nBuckets == 0 {
		nBuckets = DefaultBuckets
	}
	t := &table{
		name:     name,
		path:     filePath,
		pageSize: pageSize,
		nBuckets: nBuckets,
		nextPage: uint64(nBuckets) + 1, // page 0 is the header
		pool:     make(map[uint64]*page),
		metaDirt: true,
	}
	if dir := path.Dir(filePath); dir != "." && dir != "/" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("minidb: create table %s: %w", name, err)
		}
	}
	if err := t.writeHeader(fsys); err != nil {
		return nil, err
	}
	return t, nil
}

// openTable loads an existing table's header.
func openTable(fsys vfs.FS, name, filePath string, pageSize int) (*table, error) {
	f, err := fsys.OpenFile(filePath, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("minidb: open table %s: %w", name, err)
	}
	defer f.Close()
	hdr := make([]byte, tableHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("minidb: read table header %s: %w", name, err)
	}
	if string(hdr[:8]) != tableMagic {
		return nil, fmt.Errorf("minidb: table %s: bad header magic", name)
	}
	gotPageSize := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if gotPageSize != pageSize {
		return nil, fmt.Errorf("minidb: table %s: page size %d != engine page size %d",
			name, gotPageSize, pageSize)
	}
	return &table{
		name:     name,
		path:     filePath,
		pageSize: pageSize,
		nBuckets: binary.LittleEndian.Uint32(hdr[8:12]),
		nextPage: binary.LittleEndian.Uint64(hdr[16:24]),
		pool:     make(map[uint64]*page),
	}, nil
}

func (t *table) writeHeader(fsys vfs.FS) error {
	hdr := make([]byte, tableHeaderSize)
	copy(hdr, tableMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], t.nBuckets)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(t.pageSize))
	binary.LittleEndian.PutUint64(hdr[16:24], t.nextPage)
	if err := vfs.WriteAt(fsys, t.path, 0, hdr); err != nil {
		return fmt.Errorf("minidb: write table header %s: %w", t.name, err)
	}
	t.metaDirt = false
	return nil
}

func (t *table) bucketOf(key []byte) uint64 {
	h := fnv.New32a()
	h.Write(key) //nolint:errcheck // fnv never fails
	return uint64(h.Sum32()%t.nBuckets) + 1
}

// pageOffset maps a page id to its byte offset in the table file. Page 0
// is the header; data pages start right after it, each pageSize bytes.
func (t *table) pageOffset(id uint64) int64 {
	return tableHeaderSize + int64(id-1)*int64(t.pageSize)
}

// loadPage returns the parsed page with the given id, reading it from the
// file on first access.
func (t *table) loadPage(fsys vfs.FS, id uint64) (*page, error) {
	if p, ok := t.pool[id]; ok {
		return p, nil
	}
	buf := make([]byte, t.pageSize)
	f, err := fsys.OpenFile(t.path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			p := newPage()
			t.pool[id] = p
			return p, nil
		}
		return nil, fmt.Errorf("minidb: load page %d of %s: %w", id, t.name, err)
	}
	_, rerr := f.ReadAt(buf, t.pageOffset(id))
	f.Close()
	if rerr != nil && !errors.Is(rerr, io.EOF) {
		return nil, fmt.Errorf("minidb: load page %d of %s: %w", id, t.name, rerr)
	}
	p, err := parsePage(buf)
	if err != nil {
		return nil, fmt.Errorf("minidb: page %d of %s: %w", id, t.name, err)
	}
	t.pool[id] = p
	return p, nil
}

// get returns the value for key, walking the bucket's overflow chain.
func (t *table) get(fsys vfs.FS, key []byte) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.bucketOf(key)
	for id != noOverflow && id != 0 {
		p, err := t.loadPage(fsys, id)
		if err != nil {
			return nil, false, err
		}
		if v, ok := p.entries[string(key)]; ok {
			return append([]byte(nil), v...), true, nil
		}
		id = p.overflow
	}
	return nil, false, nil
}

// put inserts or updates key in the buffer pool, spilling to overflow
// pages as needed. Pages touched are marked dirty; nothing hits the file
// until the next checkpoint.
func (t *table) put(fsys vfs.FS, key, value []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.bucketOf(key)
	for {
		p, err := t.loadPage(fsys, id)
		if err != nil {
			return err
		}
		_, present := p.entries[string(key)]
		if present || p.overflow == noOverflow {
			p.entries[string(key)] = append([]byte(nil), value...)
			p.dirty = true
			if !p.fits(t.pageSize) {
				return t.spill(fsys, p)
			}
			return nil
		}
		id = p.overflow
	}
}

// spill moves entries out of an overfull page into a fresh overflow page
// appended to the chain.
func (t *table) spill(fsys vfs.FS, p *page) error {
	for !p.fits(t.pageSize) {
		// Allocate (or reuse) an overflow page and move entries until the
		// page fits. Move the largest entries first for fewer hops.
		ovID := p.overflow
		var ov *page
		if ovID == noOverflow {
			ovID = t.nextPage
			t.nextPage++
			t.metaDirt = true
			ov = newPage()
			t.pool[ovID] = ov
			p.overflow = ovID
		} else {
			var err error
			ov, err = t.loadPage(fsys, ovID)
			if err != nil {
				return err
			}
		}
		moved := false
		for _, k := range p.sortedKeys() {
			if p.fits(t.pageSize) {
				break
			}
			v := p.entries[k]
			entrySize := entryHeader + len(k) + len(v)
			if ov.byteSize()+entrySize > t.pageSize {
				continue
			}
			ov.entries[k] = v
			ov.dirty = true
			delete(p.entries, k)
			moved = true
		}
		if !moved {
			if len(p.entries) == 1 && p.byteSize() > t.pageSize {
				return fmt.Errorf("minidb: entry larger than page size %d in table %s", t.pageSize, t.name)
			}
			// The existing overflow page is full too: push down the chain
			// by spilling into *its* overflow.
			if err := t.spill(fsys, ov); err != nil {
				return err
			}
		}
	}
	p.dirty = true
	return nil
}

// delete removes key; returns whether it existed.
func (t *table) delete(fsys vfs.FS, key []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.bucketOf(key)
	for id != noOverflow && id != 0 {
		p, err := t.loadPage(fsys, id)
		if err != nil {
			return false, err
		}
		if _, ok := p.entries[string(key)]; ok {
			delete(p.entries, string(key))
			p.dirty = true
			return true, nil
		}
		id = p.overflow
	}
	return false, nil
}

// dirtyPages returns the ids of pages (plus the header if meta changed)
// that need flushing, sorted ascending for a sequential write pattern.
func (t *table) dirtyPages() []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ids []uint64
	for id, p := range t.pool {
		if p.dirty {
			ids = append(ids, id)
		}
	}
	sortUint64(ids)
	return ids
}

// flushPages writes the given pages to the table file (without syncing;
// the caller syncs once per batch) and clears their dirty bits.
func (t *table) flushPages(fsys vfs.FS, f vfs.File, ids []uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.metaDirt {
		hdr := make([]byte, tableHeaderSize)
		copy(hdr, tableMagic)
		binary.LittleEndian.PutUint32(hdr[8:12], t.nBuckets)
		binary.LittleEndian.PutUint32(hdr[12:16], uint32(t.pageSize))
		binary.LittleEndian.PutUint64(hdr[16:24], t.nextPage)
		if _, err := f.WriteAt(hdr, 0); err != nil {
			return fmt.Errorf("minidb: flush header of %s: %w", t.name, err)
		}
		t.metaDirt = false
	}
	for _, id := range ids {
		p, ok := t.pool[id]
		if !ok || !p.dirty {
			continue
		}
		buf, err := p.serialize(t.pageSize)
		if err != nil {
			return fmt.Errorf("minidb: flush page %d of %s: %w", id, t.name, err)
		}
		if _, err := f.WriteAt(buf, t.pageOffset(id)); err != nil {
			return fmt.Errorf("minidb: flush page %d of %s: %w", id, t.name, err)
		}
		p.dirty = false
	}
	return nil
}

// keys returns every key in the table (scanning pool + file pages).
func (t *table) keys(fsys vfs.FS) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[string]struct{})
	for id := uint64(1); id <= uint64(t.nBuckets); id++ {
		cur := id
		for cur != noOverflow && cur != 0 {
			p, err := t.loadPage(fsys, cur)
			if err != nil {
				return nil, err
			}
			for k := range p.entries {
				seen[k] = struct{}{}
			}
			cur = p.overflow
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sortStrings(out)
	return out, nil
}

func sortUint64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func sortStrings(s []string) { sort.Strings(s) }
