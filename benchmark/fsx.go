package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// clientFS is the client's view of a file system: it times every WriteAt the
// way a DBMS experiences it. It is present in every run, on the protected and
// the bare side alike, so both pay the same two clock reads per write.
type clientFS struct {
	vfs.FS
	tr *tracer // nil unless the run is traced and this is the protected side

	mu      sync.Mutex
	lat     []uint32 // ns per WAL write, saturating
	writes  atomic.Int64
	ns      atomic.Int64
	errs    atomic.Int64
	digest  *opDigest // non-nil while an op-stream digest is being taken
	sampleN int64     // trace 1 write in sampleN
	// onStop is called when the count of WAL writes (≈ commits) reaches
	// stopAt: how a client that only runs against the clock (tpcc.Driver) is
	// given a fixed amount of work. Set between slices, while no writer is
	// active.
	walWrites atomic.Int64
	stopAt    int64
	onStop    func()
}

func newClientFS(inner vfs.FS, tr *tracer, sampleN int64) *clientFS {
	return &clientFS{FS: inner, tr: tr, sampleN: sampleN}
}

func (c *clientFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &clientFile{File: f, c: c, path: name, wal: strings.HasPrefix(name, pgengine.WALDir+"/")}, nil
}

// resetSamples drops the latency samples taken so far (end of warm-up).
func (c *clientFS) resetSamples() {
	c.mu.Lock()
	c.lat = c.lat[:0]
	c.mu.Unlock()
}

// samples returns the latency samples sorted ascending.
func (c *clientFS) samples() []uint32 {
	c.mu.Lock()
	out := append([]uint32(nil), c.lat...)
	c.mu.Unlock()
	sortUint32(out)
	return out
}

type clientFile struct {
	vfs.File
	c    *clientFS
	path string
	wal  bool
}

func (f *clientFile) WriteAt(p []byte, off int64) (int, error) {
	c := f.c
	n := c.writes.Add(1)
	if f.wal && c.walWrites.Add(1) == c.stopAt {
		c.onStop()
	}
	var sp int
	traced := c.tr != nil && n%c.sampleN == 0
	if traced {
		sp = c.tr.beginClient("client.write")
	}
	t0 := time.Now()
	w, err := f.File.WriteAt(p, off)
	d := time.Since(t0)
	if traced {
		c.tr.endClient(sp)
	}
	if err != nil {
		c.errs.Add(1)
	}
	c.ns.Add(int64(d))
	ns := uint32(0xffffffff)
	if d < time.Duration(ns) {
		ns = uint32(d)
	}
	c.mu.Lock()
	if f.wal { // commit latency is the WAL write's; data pages are checkpoint traffic
		c.lat = append(c.lat, ns)
	}
	if c.digest != nil {
		c.digest.add(f.path, off, p)
	}
	c.mu.Unlock()
	return w, err
}

// timedLocal times the local write under Ginja's interception (trace only).
type timedLocal struct {
	vfs.FS
	tr     *tracer
	writes atomic.Int64
	bytes  atomic.Int64
	ns     atomic.Int64
}

func (t *timedLocal) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedLocalFile{File: f, t: t}, nil
}

type timedLocalFile struct {
	vfs.File
	t *timedLocal
}

func (f *timedLocalFile) WriteAt(p []byte, off int64) (int, error) {
	sp := f.t.tr.begin("vfs.local_write")
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.t.ns.Add(int64(time.Since(t0)))
	f.t.tr.end(sp)
	f.t.writes.Add(1)
	f.t.bytes.Add(int64(n))
	return n, err
}

// timedObserver times Ginja's vfs.Observer callbacks (trace only). OnWrite is
// where classification, enqueueing and the Safety wait happen.
type timedObserver struct {
	vfs.Observer
	tr *tracer
	ns atomic.Int64 // OnBeforeWrite + OnWrite
}

func (o *timedObserver) OnBeforeWrite(path string, off int64, data []byte) {
	t0 := time.Now()
	o.Observer.OnBeforeWrite(path, off, data)
	o.ns.Add(int64(time.Since(t0)))
}

func (o *timedObserver) OnWrite(path string, off int64, data []byte) {
	sp := o.tr.begin("core.on_write")
	t0 := time.Now()
	o.Observer.OnWrite(path, off, data)
	o.ns.Add(int64(time.Since(t0)))
	o.tr.end(sp)
}

// timedProc times dbevent classification (trace only).
type timedProc struct {
	dbevent.Processor
	tr       *tracer
	calls    atomic.Int64
	ns       atomic.Int64
	walBytes atomic.Int64 // bytes of the writes classified as WAL updates
}

func (p *timedProc) Classify(path string, off int64, data []byte) dbevent.Event {
	sp := p.tr.begin("dbevent.classify")
	t0 := time.Now()
	ev := p.Processor.Classify(path, off, data)
	p.ns.Add(int64(time.Since(t0)))
	p.tr.end(sp)
	p.calls.Add(1)
	if ev.Type == dbevent.UpdateCommit {
		p.walBytes.Add(int64(len(data)))
	}
	return ev
}
