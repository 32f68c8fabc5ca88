package core

import (
	"sort"
	"sync"
)

// dirtyPageSize is the granularity of dirty tracking: every observed
// write is rounded out to page boundaries before being recorded, so
// repeated small writes to the same page cost one range, and a delta
// ships whole pages — the unit databases rewrite anyway.
const dirtyPageSize = 4096

// byteRange is a half-open dirtied interval [Off, End) within one file.
type byteRange struct {
	Off, End int64
}

// dirtyFile is the dirty state of one file since the last chain element:
// either a sorted, disjoint, non-adjacent range list, or "whole" when a
// truncate (or any size-changing mutation we cannot express as ranges)
// forces the next delta to recapture the complete file.
type dirtyFile struct {
	Whole  bool
	Ranges []byteRange
}

// dirtyMap accumulates the byte ranges dirtied per data file since the
// last durable chain element (dump or delta). The checkpointer feeds it
// from the collected checkpoint writes — off the commit hot path — and
// drains it when it enqueues the next delta or full dump.
type dirtyMap struct {
	mu    sync.Mutex
	files map[string]*dirtyFile
}

func newDirtyMap() *dirtyMap {
	return &dirtyMap{files: make(map[string]*dirtyFile)}
}

// markWrite records [off, off+n) of path as dirty, rounded out to page
// boundaries and coalesced with existing ranges.
func (m *dirtyMap) markWrite(path string, off, n int64) {
	if m == nil || n <= 0 {
		return
	}
	lo := off &^ (dirtyPageSize - 1)
	hi := (off + n + dirtyPageSize - 1) &^ (dirtyPageSize - 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	if f == nil {
		f = &dirtyFile{}
		m.files[path] = f
	}
	if f.Whole {
		return
	}
	f.insert(byteRange{Off: lo, End: hi})
}

// markWhole records that path must be recaptured completely by the next
// delta (truncates, and any mutation ranges cannot describe).
func (m *dirtyMap) markWhole(path string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[path]
	if f == nil {
		f = &dirtyFile{}
		m.files[path] = f
	}
	f.Whole = true
	f.Ranges = nil
}

// insert merges r into the sorted range list, coalescing overlapping and
// adjacent ranges.
func (f *dirtyFile) insert(r byteRange) {
	rs := f.Ranges
	// First range with End >= r.Off can touch r; everything before stays.
	i := sort.Search(len(rs), func(i int) bool { return rs[i].End >= r.Off })
	j := i
	for j < len(rs) && rs[j].Off <= r.End {
		if rs[j].Off < r.Off {
			r.Off = rs[j].Off
		}
		if rs[j].End > r.End {
			r.End = rs[j].End
		}
		j++
	}
	if i == j { // disjoint: splice in
		rs = append(rs, byteRange{})
		copy(rs[i+1:], rs[i:])
		rs[i] = r
	} else { // swallowed [i, j): replace with the merged range
		rs[i] = r
		rs = append(rs[:i+1], rs[j:]...)
	}
	f.Ranges = rs
}

// snapshotAndReset hands the accumulated dirty state to the caller and
// starts a fresh accumulation epoch. Called when a delta or full dump is
// enqueued: either way the new chain element covers everything recorded
// so far.
func (m *dirtyMap) snapshotAndReset() map[string]*dirtyFile {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := m.files
	m.files = make(map[string]*dirtyFile)
	return snap
}
