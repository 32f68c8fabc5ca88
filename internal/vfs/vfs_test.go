package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func fsFactories(t *testing.T) map[string]func(t *testing.T) FS {
	return map[string]func(t *testing.T) FS{
		"mem": func(t *testing.T) FS { return NewMemFS() },
		"os": func(t *testing.T) FS {
			f, err := NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"intercept-mem": func(t *testing.T) FS {
			return NewInterceptFS(NewMemFS(), nil)
		},
	}
}

func TestFSWriteReadRoundTrip(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			if err := WriteFile(fsys, "pg_xlog/000000010000000000000001", []byte("wal data")); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			got, err := ReadFile(fsys, "pg_xlog/000000010000000000000001")
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if string(got) != "wal data" {
				t.Fatalf("ReadFile = %q", got)
			}
		})
	}
}

func TestFSWriteAtGrowsFile(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			if err := WriteAt(fsys, "f", 100, []byte("tail")); err != nil {
				t.Fatal(err)
			}
			fi, err := fsys.Stat("f")
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != 104 {
				t.Fatalf("Size = %d, want 104", fi.Size())
			}
			data, err := ReadFile(fsys, "f")
			if err != nil {
				t.Fatal(err)
			}
			if string(data[100:]) != "tail" {
				t.Fatalf("tail = %q", data[100:])
			}
			for _, b := range data[:100] {
				if b != 0 {
					t.Fatal("hole should be zero-filled")
				}
			}
		})
	}
}

func TestFSOverwriteMiddle(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			if err := WriteFile(fsys, "f", []byte("aaaaaaaaaa")); err != nil {
				t.Fatal(err)
			}
			if err := WriteAt(fsys, "f", 3, []byte("BBB")); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(fsys, "f")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "aaaBBBaaaa" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestFSTruncate(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			if err := WriteFile(fsys, "f", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			f, err := fsys.OpenFile("f", os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.Truncate(4); err != nil {
				t.Fatal(err)
			}
			size, err := f.Size()
			if err != nil {
				t.Fatal(err)
			}
			if size != 4 {
				t.Fatalf("Size = %d, want 4", size)
			}
			if err := f.Truncate(8); err != nil {
				t.Fatal(err)
			}
			data, err := ReadFile(fsys, "f")
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "0123\x00\x00\x00\x00" {
				t.Fatalf("after grow-truncate: %q", data)
			}
		})
	}
}

func TestFSRemoveAndRename(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			if err := WriteFile(fsys, "a", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Stat("a"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Stat(a) = %v, want ErrNotExist", err)
			}
			if err := fsys.Remove("b"); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Stat("b"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Stat(b) = %v, want ErrNotExist", err)
			}
			if err := fsys.Remove("b"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Remove(missing) = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestFSOpenMissingWithoutCreate(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			if _, err := fsys.OpenFile("missing", os.O_RDONLY, 0); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("OpenFile = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestFSReadDir(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			for _, p := range []string{"dir/b", "dir/a", "dir/sub/c", "top"} {
				if err := WriteFile(fsys, p, []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := fsys.ReadDir("dir")
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			var dirs []bool
			for _, e := range entries {
				names = append(names, e.Name())
				dirs = append(dirs, e.IsDir())
			}
			if !reflect.DeepEqual(names, []string{"a", "b", "sub"}) {
				t.Fatalf("names = %v", names)
			}
			if !reflect.DeepEqual(dirs, []bool{false, false, true}) {
				t.Fatalf("dirs = %v", dirs)
			}
		})
	}
}

func TestWalk(t *testing.T) {
	fsys := NewMemFS()
	paths := []string{"base/1/t1", "base/1/t2", "pg_xlog/0001", "global/pg_control"}
	for _, p := range paths {
		if err := WriteFile(fsys, p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Walk(fsys, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"base/1/t1", "base/1/t2", "global/pg_control", "pg_xlog/0001"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk = %v, want %v", got, want)
	}
}

func TestReadAtShortReadReturnsEOF(t *testing.T) {
	fsys := NewMemFS()
	if err := WriteFile(fsys, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile("f", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt = (%d, %v), want (3, EOF)", n, err)
	}
}

// TestMemFSPropertyWriteAt: any sequence of WriteAt calls yields the same
// final content as applying them to a plain byte slice.
func TestMemFSPropertyWriteAt(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	prop := func(ops []op) bool {
		fsys := NewMemFS()
		f, err := fsys.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return false
		}
		defer f.Close()
		var model []byte
		for _, o := range ops {
			off := int64(o.Off % 4096)
			if _, err := f.WriteAt(o.Data, off); err != nil {
				return false
			}
			end := off + int64(len(o.Data))
			if end > int64(len(model)) {
				grown := make([]byte, end)
				copy(grown, model)
				model = grown
			}
			copy(model[off:end], o.Data)
		}
		got, err := ReadFile(fsys, "f")
		if err != nil {
			return false
		}
		return string(got) == string(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMemFSAppendAllocatesLinearly: growing a 16 MiB segment in 8 KiB
// appends — what every virtual-time bench and most tests do to MemFS —
// must allocate O(n) bytes in total, not a fresh copy of the file per
// write; and bytes left behind by a shrink must not resurface when the
// file grows back into its spare capacity.
func TestMemFSAppendAllocatesLinearly(t *testing.T) {
	const size, chunk = 16 << 20, 8 << 10
	f, err := NewMemFS().OpenFile("seg", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = 0xAB
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := int64(0); off < size; off += chunk {
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*size {
		t.Fatalf("appending %d B in %d B writes allocated %d B (%.1fx), want O(n)",
			size, chunk, got, float64(got)/size)
	}

	if err := f.Truncate(chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, 3*chunk); err != nil {
		t.Fatal(err)
	}
	gap := make([]byte, 2*chunk)
	if _, err := f.ReadAt(gap, chunk); err != nil {
		t.Fatal(err)
	}
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("byte %d past the shrink reads %#x after growing back, want 0", chunk+i, b)
		}
	}
}

func TestOSFSRejectsEscape(t *testing.T) {
	fsys, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Path cleaning must keep "../../etc/passwd" inside the root.
	if err := WriteFile(fsys, "../escape", []byte("x")); err != nil {
		t.Fatalf("WriteFile should clean the path, got err %v", err)
	}
	if _, err := os.Stat(fsys.Root() + "/escape"); err != nil {
		t.Fatalf("cleaned file not inside root: %v", err)
	}
}

func TestOpenWithTruncFlag(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			if err := WriteFile(fsys, "f", []byte("old content")); err != nil {
				t.Fatal(err)
			}
			f, err := fsys.OpenFile("f", os.O_RDWR|os.O_TRUNC, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			size, err := f.Size()
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			if size != 0 {
				t.Fatalf("O_TRUNC left %d bytes", size)
			}
		})
	}
}

func TestStatDirectoryAndMissing(t *testing.T) {
	fsys := NewMemFS()
	if err := WriteFile(fsys, "dir/sub/file", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fi, err := fsys.Stat("dir/sub")
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir() {
		t.Fatal("implicit directory not reported as dir")
	}
	if _, err := fsys.Stat("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat(missing) = %v", err)
	}
	// Mode sanity for files and dirs.
	ff, err := fsys.Stat("dir/sub/file")
	if err != nil {
		t.Fatal(err)
	}
	if ff.IsDir() || ff.Mode().IsDir() {
		t.Fatal("file reported as dir")
	}
}

func TestWalkMissingRootFails(t *testing.T) {
	fsys, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Walk(fsys, "no-such-dir"); err == nil {
		t.Fatal("Walk on a missing directory succeeded")
	}
}
