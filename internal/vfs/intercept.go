package vfs

import (
	"io/fs"
	"os"
)

// Observer receives the file-system events Ginja needs (paper Table 1 is
// computed from exactly these). Every method is invoked synchronously on
// the path of the calling database thread: if OnWrite blocks, the database
// write blocks — this is how the Safety parameter throttles the DBMS.
type Observer interface {
	// OnBeforeWrite is called before data is handed to the local file,
	// before a truncate with off the new size and nil data, and before a
	// rename once per name with off 0 and nil data. It may block —
	// this is how Ginja freezes database-file writes and truncates while a
	// streaming dump is reading the files (§5.3: local DB writes stop
	// during dump creation). The change has NOT happened yet when this
	// runs, so implementations must not assume it is on disk.
	OnBeforeWrite(path string, off int64, data []byte)
	// OnWrite is called after data has been durably handed to the local
	// file but before the write returns to the database.
	OnWrite(path string, off int64, data []byte)
	// OnSync is called when the database fsyncs a file.
	OnSync(path string)
	// OnTruncate is called when a file is truncated to size.
	OnTruncate(path string, size int64)
	// OnRemove is called when a file is deleted.
	OnRemove(path string)
}

// NopObserver is an Observer that ignores every event. Embed it to
// implement only the callbacks a component cares about.
type NopObserver struct{}

var _ Observer = NopObserver{}

// OnBeforeWrite implements Observer.
func (NopObserver) OnBeforeWrite(string, int64, []byte) {}

// OnWrite implements Observer.
func (NopObserver) OnWrite(string, int64, []byte) {}

// OnSync implements Observer.
func (NopObserver) OnSync(string) {}

// OnTruncate implements Observer.
func (NopObserver) OnTruncate(string, int64) {}

// OnRemove implements Observer.
func (NopObserver) OnRemove(string) {}

// InterceptFS wraps an FS, reporting mutating operations to an Observer.
// It is the in-process analogue of the paper's FUSE FS Interpreter.
type InterceptFS struct {
	inner FS
	obs   Observer
}

var _ FS = (*InterceptFS)(nil)

// NewInterceptFS wraps inner so every mutation is reported to obs.
func NewInterceptFS(inner FS, obs Observer) *InterceptFS {
	if obs == nil {
		obs = NopObserver{}
	}
	return &InterceptFS{inner: inner, obs: obs}
}

// Inner returns the wrapped FS, bypassing interception. Ginja's own local
// writes (during recovery) use it to avoid re-observing themselves.
func (i *InterceptFS) Inner() FS { return i.inner }

// OpenFile implements FS.
func (i *InterceptFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &interceptFile{inner: f, obs: i.obs, path: normalize(name)}, nil
}

// Remove implements FS.
func (i *InterceptFS) Remove(name string) error {
	if err := i.inner.Remove(name); err != nil {
		return err
	}
	i.obs.OnRemove(normalize(name))
	return nil
}

// Rename implements FS. Both names pass OnBeforeWrite first, as a
// truncate does, so a rename waits while a dump reads either file. The
// observer hears of no rename: Ginja does not replicate it yet.
func (i *InterceptFS) Rename(oldName, newName string) error {
	i.obs.OnBeforeWrite(normalize(oldName), 0, nil)
	i.obs.OnBeforeWrite(normalize(newName), 0, nil)
	return i.inner.Rename(oldName, newName)
}

// Stat implements FS.
func (i *InterceptFS) Stat(name string) (fs.FileInfo, error) { return i.inner.Stat(name) }

// ReadDir implements FS.
func (i *InterceptFS) ReadDir(name string) ([]fs.DirEntry, error) { return i.inner.ReadDir(name) }

// MkdirAll implements FS.
func (i *InterceptFS) MkdirAll(name string, perm os.FileMode) error {
	return i.inner.MkdirAll(name, perm)
}

type interceptFile struct {
	inner File
	obs   Observer
	path  string
}

var _ File = (*interceptFile)(nil)

func (f *interceptFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *interceptFile) WriteAt(p []byte, off int64) (int, error) {
	// The observer may hold the write back before it lands (dump
	// streaming freezes database files), then local-first, then observe
	// (paper Alg. 2 lines 5-7): the data is already on local disk when
	// Ginja enqueues it for the cloud, and the observer may block us here
	// to enforce Safety.
	f.obs.OnBeforeWrite(f.path, off, p)
	n, err := f.inner.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	f.obs.OnWrite(f.path, off, p[:n])
	return n, nil
}

func (f *interceptFile) Close() error { return f.inner.Close() }

func (f *interceptFile) Sync() error {
	if err := f.inner.Sync(); err != nil {
		return err
	}
	f.obs.OnSync(f.path)
	return nil
}

func (f *interceptFile) Truncate(size int64) error {
	f.obs.OnBeforeWrite(f.path, size, nil)
	if err := f.inner.Truncate(size); err != nil {
		return err
	}
	f.obs.OnTruncate(f.path, size)
	return nil
}

func (f *interceptFile) Size() (int64, error) { return f.inner.Size() }
func (f *interceptFile) Name() string         { return f.inner.Name() }
