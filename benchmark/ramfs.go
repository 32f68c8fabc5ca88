package main

import (
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ginja-dr/ginja/internal/vfs"
)

// ramFS is the benchmark's local disk: files held in 64 KiB chunks of process
// memory. A write costs a copy, growth allocates only the chunks it touches,
// and a hole (a WAL segment preallocated by Truncate) costs nothing — unlike
// vfs.MemFS, whose WriteAt reallocates and copies the whole file on every
// growing write. Nothing here reaches the kernel, so the sandbox's block
// device, its dirty-page throttling and its journal stay out of the numbers
// (README, "Local file system").
type ramFS struct {
	mu    sync.RWMutex
	files map[string]*ramData
}

const ramChunk = 64 << 10

type ramData struct {
	mu      sync.RWMutex
	chunks  [][]byte // nil chunk = hole, reads as zeros
	size    int64
	modTime time.Time
}

var _ vfs.FS = (*ramFS)(nil)

func newRAMFS() *ramFS { return &ramFS{files: make(map[string]*ramData)} }

func ramName(name string) string { return strings.TrimPrefix(path.Clean("/"+name), "/") }

func (r *ramFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	name = ramName(name)
	r.mu.Lock()
	d, ok := r.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			r.mu.Unlock()
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		d = &ramData{modTime: time.Now()}
		r.files[name] = d
	}
	r.mu.Unlock()
	f := &ramFile{d: d, name: name}
	if flag&os.O_TRUNC != 0 {
		f.Truncate(0) //nolint:errcheck // cannot fail
	}
	return f, nil
}

func (r *ramFS) Remove(name string) error {
	name = ramName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(r.files, name)
	return nil
}

func (r *ramFS) Rename(oldName, newName string) error {
	oldName, newName = ramName(oldName), ramName(newName)
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.files[oldName]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldName, Err: fs.ErrNotExist}
	}
	delete(r.files, oldName)
	r.files[newName] = d
	return nil
}

func (r *ramFS) Stat(name string) (fs.FileInfo, error) {
	name = ramName(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if d, ok := r.files[name]; ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return ramInfo{name: path.Base(name), size: d.size, modTime: d.modTime}, nil
	}
	for p := range r.files { // directories exist while they have children
		if name == "" || strings.HasPrefix(p, name+"/") {
			return ramInfo{name: path.Base(name), dir: true}, nil
		}
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

func (r *ramFS) ReadDir(name string) ([]fs.DirEntry, error) {
	prefix := ramName(name)
	if prefix != "" {
		prefix += "/"
	}
	r.mu.RLock()
	seen := make(map[string]ramInfo)
	for p, d := range r.files {
		rest, ok := strings.CutPrefix(p, prefix)
		if !ok {
			continue
		}
		if dir, _, nested := strings.Cut(rest, "/"); nested {
			seen[dir] = ramInfo{name: dir, dir: true}
			continue
		}
		d.mu.RLock()
		seen[rest] = ramInfo{name: rest, size: d.size, modTime: d.modTime}
		d.mu.RUnlock()
	}
	r.mu.RUnlock()
	entries := make([]fs.DirEntry, 0, len(seen))
	for _, info := range seen {
		entries = append(entries, info)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	return entries, nil
}

func (*ramFS) MkdirAll(string, os.FileMode) error { return nil }

type ramFile struct {
	d    *ramData
	name string
}

func (f *ramFile) ReadAt(p []byte, off int64) (int, error) {
	d := f.d
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off >= d.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), d.size-off))
	for done := 0; done < n; {
		i, at := (off+int64(done))/ramChunk, (off+int64(done))%ramChunk
		span := min(n-done, int(ramChunk-at))
		if c := d.chunks[i]; c != nil {
			copy(p[done:done+span], c[at:])
		} else {
			clear(p[done : done+span])
		}
		done += span
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *ramFile) WriteAt(p []byte, off int64) (int, error) {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	end := off + int64(len(p))
	d.grow(end)
	for done := 0; done < len(p); {
		i, at := (off+int64(done))/ramChunk, (off+int64(done))%ramChunk
		span := min(len(p)-done, int(ramChunk-at))
		if d.chunks[i] == nil {
			d.chunks[i] = make([]byte, ramChunk)
		}
		copy(d.chunks[i][at:], p[done:done+span])
		done += span
	}
	d.size = max(d.size, end)
	d.modTime = time.Now()
	return len(p), nil
}

// grow makes room in the chunk table for size bytes; callers hold mu.
func (d *ramData) grow(size int64) {
	for need := int((size + ramChunk - 1) / ramChunk); len(d.chunks) < need; {
		d.chunks = append(d.chunks, nil)
	}
}

func (f *ramFile) Truncate(size int64) error {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < d.size {
		keep := int((size + ramChunk - 1) / ramChunk)
		clear(d.chunks[keep:])
		d.chunks = d.chunks[:keep]
		if at := size % ramChunk; at != 0 && d.chunks[keep-1] != nil {
			clear(d.chunks[keep-1][at:])
		}
	}
	d.grow(size)
	d.size = size
	d.modTime = time.Now()
	return nil
}

func (f *ramFile) Size() (int64, error) {
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	return f.d.size, nil
}

func (*ramFile) Close() error   { return nil }
func (*ramFile) Sync() error    { return nil }
func (f *ramFile) Name() string { return f.name }

// ramInfo is both the FileInfo and the DirEntry of a ramFS entry.
type ramInfo struct {
	name    string
	size    int64
	dir     bool
	modTime time.Time
}

func (i ramInfo) Name() string       { return i.name }
func (i ramInfo) Size() int64        { return i.size }
func (i ramInfo) ModTime() time.Time { return i.modTime }
func (i ramInfo) IsDir() bool        { return i.dir }
func (ramInfo) Sys() any             { return nil }
func (i ramInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i ramInfo) Type() fs.FileMode          { return i.Mode().Type() }
func (i ramInfo) Info() (fs.FileInfo, error) { return i, nil }
