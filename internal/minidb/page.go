// Package minidb implements the embedded transactional database engine
// Ginja protects in this reproduction. It follows the model the paper
// assumes of PostgreSQL and MySQL (§4): durability comes from synchronous
// page-granular writes to a write-ahead log at commit time; table pages
// stay in memory until a periodic checkpoint writes them to the table
// files and stamps a checkpoint marker; crash recovery replays the WAL
// from the last checkpoint.
//
// The engine is redo-only (a "no-steal" buffer policy: only committed data
// ever reaches a table page), so recovery is a single forward replay.
package minidb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Page layout constants.
const (
	pageMagic      = 0xB0D1
	pageHeaderSize = 2 + 2 + 4 + 8 // magic, nEntries, used, overflow page id
	entryHeader    = 2 + 4         // keyLen, valueLen
	// noOverflow marks the end of a bucket's overflow chain.
	noOverflow = ^uint64(0)
)

// errPageFull reports that a serialized page exceeds the page size; the
// caller must spill entries to an overflow page.
var errPageFull = errors.New("minidb: page full")

// page is the in-memory (parsed) form of one slotted data page. Entries
// live in a map; serialization is deterministic (sorted by key).
type page struct {
	entries  map[string][]byte
	overflow uint64 // next page in the bucket chain, or noOverflow
	dirty    bool
}

func newPage() *page {
	return &page{entries: make(map[string][]byte), overflow: noOverflow}
}

// fits reports whether the page would serialize within size bytes.
func (p *page) fits(size int) bool { return p.byteSize() <= size }

func (p *page) byteSize() int {
	n := pageHeaderSize
	for k, v := range p.entries {
		n += entryHeader + len(k) + len(v)
	}
	return n
}

// sortedKeys returns the page's keys in order: everything that walks a
// page does so in key order, so the file layout is a function of the
// operations alone.
func (p *page) sortedKeys() []string {
	keys := make([]string, 0, len(p.entries))
	for k := range p.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// serialize renders the page into a buffer of exactly size bytes.
func (p *page) serialize(size int) ([]byte, error) {
	if !p.fits(size) {
		return nil, fmt.Errorf("%w: %d bytes into %d-byte page", errPageFull, p.byteSize(), size)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint16(buf[0:2], pageMagic)
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(p.entries)))
	binary.LittleEndian.PutUint64(buf[8:16], p.overflow)
	off := pageHeaderSize
	for _, k := range p.sortedKeys() {
		v := p.entries[k]
		binary.LittleEndian.PutUint16(buf[off:off+2], uint16(len(k)))
		binary.LittleEndian.PutUint32(buf[off+2:off+6], uint32(len(v)))
		off += entryHeader
		copy(buf[off:], k)
		off += len(k)
		copy(buf[off:], v)
		off += len(v)
	}
	binary.LittleEndian.PutUint32(buf[4:8], uint32(off))
	return buf, nil
}

// parsePage decodes a serialized page. An all-zero buffer (a never-written
// page) parses as an empty page.
func parsePage(buf []byte) (*page, error) {
	p := newPage()
	if len(buf) < pageHeaderSize {
		return nil, fmt.Errorf("minidb: page buffer too small (%d bytes)", len(buf))
	}
	magic := binary.LittleEndian.Uint16(buf[0:2])
	if magic == 0 {
		return p, nil // fresh page
	}
	if magic != pageMagic {
		return nil, fmt.Errorf("minidb: bad page magic %#x", magic)
	}
	n := int(binary.LittleEndian.Uint16(buf[2:4]))
	used := int(binary.LittleEndian.Uint32(buf[4:8]))
	p.overflow = binary.LittleEndian.Uint64(buf[8:16])
	if used > len(buf) {
		return nil, fmt.Errorf("minidb: page used %d exceeds page size %d", used, len(buf))
	}
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		if off+entryHeader > used {
			return nil, errors.New("minidb: truncated page entry header")
		}
		kl := int(binary.LittleEndian.Uint16(buf[off : off+2]))
		vl := int(binary.LittleEndian.Uint32(buf[off+2 : off+6]))
		off += entryHeader
		if off+kl+vl > used {
			return nil, errors.New("minidb: truncated page entry payload")
		}
		k := string(buf[off : off+kl])
		off += kl
		v := append([]byte(nil), buf[off:off+vl]...)
		off += vl
		p.entries[k] = v
	}
	return p, nil
}
