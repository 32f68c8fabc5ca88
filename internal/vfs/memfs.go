package vfs

import (
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory FS used by tests and high-throughput experiments
// (it removes local-disk noise so that the cloud path dominates, matching
// the paper's observation that commit latency is bounded by the WAL sync).
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memFileData // path -> contents
}

var _ FS = (*MemFS)(nil)

type memFileData struct {
	mu      sync.RWMutex
	data    []byte
	modTime time.Time
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFileData)}
}

func normalize(name string) string {
	return strings.TrimPrefix(path.Clean("/"+name), "/")
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	name = normalize(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	fd, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		fd = &memFileData{modTime: time.Now()}
		m.files[name] = fd
	}
	if flag&os.O_TRUNC != 0 {
		fd.mu.Lock()
		fd.data = nil
		fd.mu.Unlock()
	}
	return &memFile{fd: fd, name: name}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	name = normalize(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	oldName, newName = normalize(oldName), normalize(newName)
	m.mu.Lock()
	defer m.mu.Unlock()
	fd, ok := m.files[oldName]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldName, Err: fs.ErrNotExist}
	}
	delete(m.files, oldName)
	m.files[newName] = fd
	return nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	name = normalize(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if fd, ok := m.files[name]; ok {
		fd.mu.RLock()
		defer fd.mu.RUnlock()
		return memFileInfo{name: path.Base(name), size: int64(len(fd.data)), modTime: fd.modTime}, nil
	}
	// Directories exist implicitly when they have children.
	prefix := name + "/"
	if name == "" {
		prefix = ""
	}
	for p := range m.files {
		if strings.HasPrefix(p, prefix) {
			return memFileInfo{name: path.Base(name), dir: true, modTime: time.Now()}, nil
		}
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(name string) ([]fs.DirEntry, error) {
	name = normalize(name)
	prefix := name + "/"
	if name == "" || name == "." {
		prefix = ""
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := make(map[string]fs.DirEntry)
	for p, fd := range m.files {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			dir := rest[:i]
			seen[dir] = memDirEntry{info: memFileInfo{name: dir, dir: true}}
			continue
		}
		fd.mu.RLock()
		info := memFileInfo{name: rest, size: int64(len(fd.data)), modTime: fd.modTime}
		fd.mu.RUnlock()
		seen[rest] = memDirEntry{info: info}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]fs.DirEntry, 0, len(names))
	for _, n := range names {
		entries = append(entries, seen[n])
	}
	return entries, nil
}

// MkdirAll implements FS. Directories are implicit in MemFS, so this is a
// no-op that always succeeds.
func (m *MemFS) MkdirAll(string, os.FileMode) error { return nil }

type memFile struct {
	fd   *memFileData
	name string
}

var _ File = (*memFile)(nil)

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fd.mu.RLock()
	defer f.fd.mu.RUnlock()
	if off >= int64(len(f.fd.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.fd.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fd.mu.Lock()
	defer f.fd.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(f.fd.data)) {
		f.fd.grow(end)
	}
	copy(f.fd.data[off:end], p)
	f.fd.modTime = time.Now()
	return len(p), nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }

func (f *memFile) Truncate(size int64) error {
	f.fd.mu.Lock()
	defer f.fd.mu.Unlock()
	if size < int64(len(f.fd.data)) {
		f.fd.data = f.fd.data[:size]
	} else {
		f.fd.grow(size)
	}
	return nil
}

// grow extends the file to size bytes, zero-filling the extension.
// Capacity doubles, so a file appended to in small writes costs O(n)
// allocated bytes over its life rather than O(n²). The caller holds mu.
func (fd *memFileData) grow(size int64) {
	old := len(fd.data)
	if size <= int64(cap(fd.data)) {
		fd.data = fd.data[:size]
		clear(fd.data[old:]) // bytes past an earlier shrink are stale
		return
	}
	grown := make([]byte, size, max(size, 2*int64(cap(fd.data))))
	copy(grown, fd.data)
	fd.data = grown
}

func (f *memFile) Size() (int64, error) {
	f.fd.mu.RLock()
	defer f.fd.mu.RUnlock()
	return int64(len(f.fd.data)), nil
}

func (f *memFile) Name() string { return f.name }

type memFileInfo struct {
	name    string
	size    int64
	dir     bool
	modTime time.Time
}

func (i memFileInfo) Name() string       { return i.name }
func (i memFileInfo) Size() int64        { return i.size }
func (i memFileInfo) Mode() fs.FileMode  { return modeOf(i.dir) }
func (i memFileInfo) ModTime() time.Time { return i.modTime }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }

func modeOf(dir bool) fs.FileMode {
	if dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

type memDirEntry struct {
	info memFileInfo
}

func (e memDirEntry) Name() string               { return e.info.name }
func (e memDirEntry) IsDir() bool                { return e.info.dir }
func (e memDirEntry) Type() fs.FileMode          { return e.info.Mode().Type() }
func (e memDirEntry) Info() (fs.FileInfo, error) { return e.info, nil }
