package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
)

const (
	walPage  = pgengine.DefaultWALPageSize
	dataPage = pgengine.DefaultDataPageSize
	clogPage = 256
)

// pgSpec describes one of the three synthetic PostgreSQL-pattern workloads.
// Their client is the same page writer; they differ in Ginja's parameters,
// the store behind it and how much checkpoint traffic rides along.
type pgSpec struct {
	params core.Params
	http   bool // store behind a loopback s3http server

	baseFiles int   // data files under base/1/
	baseSize  int64 // bytes per data file
	segSize   int64 // WAL segment size, preallocated

	// One slice is updatesPerSecond × seconds/rounds WAL updates, with a
	// mini-checkpoint (pg_clog → dirtyPages base pages → pg_control) every
	// ckptEvery updates, a closing checkpoint, and tail more updates so the
	// recovery check has WAL to replay past the last checkpoint.
	updatesPerSecond float64
	ckptEvery        int64
	dirtyPages       int
	tail             int64
	// timeCheckpoints keeps the slice's clock running until every checkpoint
	// and dump it triggered is uploaded and collected (bulk_cycle); elsewhere
	// the clock stops when Flush returns and the rest is waited for untimed.
	timeCheckpoints bool
	// bareRepeat is how many times the bare side repeats the slice's work:
	// on a file system that costs a memcpy one pass is over in milliseconds,
	// too short to time against.
	bareRepeat int

	sample int64 // trace 1 client write in sample
	// setups and recoveries are how often set-up (build tree, New, Boot) and
	// the recovery check are repeated; setup_s, core.dump_mb_s and
	// core.recovery_mb_s are medians over them. Small trees boot and recover in a fraction of a
	// second, so they get more repeats.
	setups     int
	recoveries int
}

// Fixed work sized on the 2-core seed box so the five measured rounds
// (protected + bare slice each) take ≈ -seconds in total. The counts, not
// the clock, end a slice: the cost counters then repeat run to run.
func pgSpecFor(name string) pgSpec {
	p := core.DefaultParams()
	p.BatchTimeout = 50 * time.Millisecond
	p.Compress, p.Encrypt, p.Password = true, true, password
	switch name {
	case "wal_stream":
		return pgSpec{params: p, baseFiles: 2, baseSize: 8 << 20, segSize: 16 << 20,
			updatesPerSecond: 110_000, ckptEvery: 200_000, dirtyPages: 1, tail: 500, bareRepeat: 2, sample: 64, setups: 5, recoveries: 7}
	case "sync_commit":
		q := core.NoLoss()
		return pgSpec{params: q, http: true, baseFiles: 2, baseSize: 8 << 20, segSize: 16 << 20,
			updatesPerSecond: 4_500, ckptEvery: 1 << 40, dirtyPages: 1, tail: 200, bareRepeat: 20, sample: 8, setups: 5, recoveries: 7}
	case "bulk_cycle":
		return pgSpec{params: p, baseFiles: 8, baseSize: 8 << 20, segSize: 16 << 20,
			updatesPerSecond: 2_000, ckptEvery: 200, dirtyPages: 820, tail: 50, timeCheckpoints: true, bareRepeat: 4, sample: 1, setups: 3, recoveries: 3}
	}
	panic("unknown pg workload " + name)
}

var (
	walPath  = pgengine.SegmentPath(1)
	clogPath = pgengine.CLogPath
	ctlPath  = pgengine.ControlPath
)

func basePath(i int) string { return fmt.Sprintf("base/1/%d", 16384+i) }

// buildPGTree writes the synthetic PostgreSQL tree: data files full of
// generator bytes, a clog page, a control file, and one WAL segment created
// at its full size the way PostgreSQL preallocates them.
func buildPGTree(fsys vfs.FS, g *gen, s pgSpec) error {
	chunk := make([]byte, 1<<20)
	for i := 0; i < s.baseFiles; i++ {
		p := basePath(i)
		if err := fsys.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		f, err := fsys.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		for off := int64(0); off < s.baseSize; off += int64(len(chunk)) {
			n := min(int64(len(chunk)), s.baseSize-off)
			g.fill(chunk[:n])
			if _, err := f.WriteAt(chunk[:n], off); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	page := make([]byte, dataPage)
	g.fill(page)
	if err := vfs.WriteFile(fsys, clogPath, page); err != nil {
		return err
	}
	if err := vfs.WriteFile(fsys, ctlPath, page[:28]); err != nil {
		return err
	}
	if err := fsys.MkdirAll(pgengine.WALDir, 0o755); err != nil {
		return err
	}
	seg, err := fsys.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err := seg.Truncate(s.segSize); err != nil {
		seg.Close()
		return err
	}
	return seg.Close()
}

// pageWriter is the closed-loop client: it appends 300–1500 B records by
// rewriting the current 8 KiB page of the WAL segment (pgengine's pattern,
// wrapping at the segment end) and waits for each write to return.
type pageWriter struct {
	g    *gen
	spec pgSpec
	seg  vfs.File
	clog vfs.File
	ctl  vfs.File
	base []vfs.File

	page      [walPage]byte
	fill      int
	pageOff   int64
	sinceCkpt int64
	ckpts     int64
	// walDirty holds the WAL pages written since the last checkpoint began:
	// the ones a recovery must reproduce.
	walDirty map[int64]struct{}
	dirtyMiB float64 // data bytes written by checkpoints, for checkpoint_mb_s
}

func newPageWriter(g *gen, fsys vfs.FS, s pgSpec) (*pageWriter, error) {
	w := &pageWriter{g: g, spec: s, walDirty: make(map[int64]struct{})}
	open := func(p string) (vfs.File, error) { return fsys.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644) }
	var err error
	if w.seg, err = open(walPath); err != nil {
		return nil, err
	}
	if w.clog, err = open(clogPath); err != nil {
		return nil, err
	}
	if w.ctl, err = open(ctlPath); err != nil {
		return nil, err
	}
	for i := 0; i < s.baseFiles; i++ {
		f, err := open(basePath(i))
		if err != nil {
			return nil, err
		}
		w.base = append(w.base, f)
	}
	return w, nil
}

func (w *pageWriter) close() {
	for _, f := range append([]vfs.File{w.seg, w.clog, w.ctl}, w.base...) {
		f.Close() //nolint:errcheck // handles on scratch files; nothing buffered
	}
}

// update appends one record and rewrites its page.
func (w *pageWriter) update() error {
	n := 300 + w.g.rng.Intn(1201)
	if w.fill+n > walPage {
		w.pageOff += walPage
		if w.pageOff >= w.spec.segSize {
			w.pageOff = 0
		}
		w.fill = 0
		clear(w.page[:])
	}
	copy(w.page[w.fill:], w.g.bytes(n))
	w.fill += n
	w.walDirty[w.pageOff] = struct{}{}
	w.sinceCkpt++
	_, err := w.seg.WriteAt(w.page[:], w.pageOff)
	return err
}

// checkpoint is the three-event mini-checkpoint Ginja's PostgreSQL
// processor detects: pg_clog (begin), data pages, pg_control (end).
func (w *pageWriter) checkpoint() error {
	clear(w.walDirty)
	w.sinceCkpt = 0
	w.ckpts++
	var small [clogPage]byte
	copy(small[:], w.g.bytes(clogPage))
	if _, err := w.clog.WriteAt(small[:], (w.ckpts%32)*clogPage); err != nil {
		return err
	}
	var page [dataPage]byte
	pagesPerFile := int(w.spec.baseSize / dataPage)
	for i := 0; i < w.spec.dirtyPages; i++ {
		w.g.fill(page[:])
		f := w.base[w.g.rng.Intn(len(w.base))]
		if _, err := f.WriteAt(page[:], int64(w.g.rng.Intn(pagesPerFile))*dataPage); err != nil {
			return err
		}
	}
	w.dirtyMiB += float64(w.spec.dirtyPages) * dataPage / (1 << 20)
	_, err := w.ctl.WriteAt(small[:28], 0)
	return err
}

// slice issues n updates with their periodic checkpoints, a closing
// checkpoint and the tail.
func (w *pageWriter) slice(n int64) (units, failed int64, err error) {
	for i := int64(0); i < n; i++ {
		if err := w.update(); err != nil {
			return i, 1, err
		}
		if w.sinceCkpt >= w.spec.ckptEvery {
			if err := w.checkpoint(); err != nil {
				return i, 1, err
			}
		}
	}
	if err := w.checkpoint(); err != nil {
		return n, 1, err
	}
	for i := int64(0); i < w.spec.tail; i++ {
		if err := w.update(); err != nil {
			return n + i, 1, err
		}
	}
	return n + w.spec.tail, 0, nil
}

// verifyPG checks a recovered tree against the primary: every data file is
// byte-identical and every WAL page written since the last checkpoint
// matches.
func verifyPG(primary, recovered vfs.FS, proc dbevent.Processor, walDirty map[int64]struct{}) error {
	isData := func(p string) bool { return proc.FileKind(p) == dbevent.KindData }
	want, err := vfs.Walk(primary, "")
	if err != nil {
		return err
	}
	got, err := vfs.Walk(recovered, "")
	if err != nil {
		return err
	}
	gotData := make(map[string]bool)
	for _, p := range got {
		if isData(p) {
			gotData[p] = true
		}
	}
	for _, p := range want {
		if !isData(p) {
			continue
		}
		if !gotData[p] {
			return fmt.Errorf("data file %s missing after recovery", p)
		}
		delete(gotData, p)
		if err := sameFile(primary, recovered, p); err != nil {
			return err
		}
	}
	for p := range gotData {
		return fmt.Errorf("recovery produced data file %s the primary does not have", p)
	}
	pf, err := primary.OpenFile(walPath, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer pf.Close()
	rf, err := recovered.OpenFile(walPath, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("recovered WAL segment: %w", err)
	}
	defer rf.Close()
	a, b := make([]byte, walPage), make([]byte, walPage)
	for off := range walDirty {
		if _, err := pf.ReadAt(a, off); err != nil {
			return err
		}
		if _, err := rf.ReadAt(b, off); err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("WAL page at %d differs after recovery", off)
		}
	}
	return nil
}

func sameFile(a, b vfs.FS, p string) error {
	fa, err := a.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := b.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer fb.Close()
	sa, err := fa.Size()
	if err != nil {
		return err
	}
	sb, err := fb.Size()
	if err != nil {
		return err
	}
	if sa != sb {
		return fmt.Errorf("%s: %d bytes on the primary, %d recovered", p, sa, sb)
	}
	ba, bb := make([]byte, 1<<20), make([]byte, 1<<20)
	for off := int64(0); off < sa; off += int64(len(ba)) {
		n := min(int64(len(ba)), sa-off)
		if _, err := fa.ReadAt(ba[:n], off); err != nil {
			return err
		}
		if _, err := fb.ReadAt(bb[:n], off); err != nil {
			return err
		}
		if !bytes.Equal(ba[:n], bb[:n]) {
			return fmt.Errorf("%s differs after recovery near offset %d", p, off)
		}
	}
	return nil
}

// runPG runs one of wal_stream, sync_commit, bulk_cycle.
func runPG(b *bench) error {
	s := pgSpecFor(b.cfg.Workload)
	s.baseSize = max(b.scaled(s.baseSize, 8*dataPage)/dataPage*dataPage, dataPage)
	s.segSize = max(b.scaled(s.segSize, 32*walPage)/walPage*walPage, walPage)
	s.ckptEvery = b.scaled(s.ckptEvery, 20)
	s.dirtyPages = int(b.scaled(int64(s.dirtyPages), 1))
	perSlice := b.scaled(int64(s.updatesPerSecond*b.cfg.Seconds/measuredRounds), 50)

	// Set-up, repeated: build the tree, New, Boot into a fresh bucket. The
	// last stack is the one measured; a traced run also keeps the one before
	// it, untraced, as the reference the tracing overhead is read against.
	var (
		setups, boots []time.Duration
		ref, st       *stack
	)
	t0 := time.Now()
	for i := 0; i < s.setups; i++ {
		local := newRAMFS()
		ts := time.Now()
		if err := buildPGTree(local, b.gen.fork(b.cfg.Seed), s); err != nil {
			return fmt.Errorf("build tree: %w", err)
		}
		build := time.Since(ts)
		traced := b.cfg.Trace && i == s.setups-1
		k, err := b.newStack(local, stackOpts{params: s.params, http: s.http, traced: traced, sample: s.sample})
		if err != nil {
			return err
		}
		k.setup += build
		setups, boots = append(setups, k.setup), append(boots, k.boot)
		switch {
		case i == s.setups-1:
			st = k
		case b.cfg.Trace && i == s.setups-2:
			ref = k
		default:
			k.close()
			runtime.GC() // a discarded repeat's tree and bucket are the harness's garbage, not the run's
		}
	}
	defer st.close()
	b.setupMetrics(0, setups, boots, st.treeBytes)
	bareLocal := newRAMFS()
	if err := buildPGTree(bareLocal, b.gen.fork(b.cfg.Seed), s); err != nil {
		return err
	}
	bareFS := newClientFS(bareLocal, nil, 1)
	b.phase("setup", t0)

	// The op-stream digest: what the first writes of this seed look like.
	b.digest = pgDigest(b.gen, b.cfg.Seed, s)

	mkSide := func(fs *clientFS, k *stack, repeat int) (side, *pageWriter, error) {
		w, err := newPageWriter(b.gen.fork(b.cfg.Seed+1), fs, s)
		if err != nil {
			return side{}, nil, err
		}
		sd := side{fs: fs, close: w.close}
		switch {
		case k == nil: // the bare side has no bucket to wait for
		case s.timeCheckpoints:
			sd.settle = k.settle
		default:
			sd.settle, sd.after = k.flush, k.settle
		}
		sd.work = func() (units, failed int64, err error) {
			for i := 0; i < repeat && err == nil && b.ctx.Err() == nil; i++ {
				var u, f int64
				u, f, err = w.slice(perSlice)
				units, failed = units+u, failed+f
			}
			return units, failed, err
		}
		return sd, w, nil
	}
	bare, _, err := mkSide(bareFS, nil, s.bareRepeat)
	if err != nil {
		return err
	}
	defer bare.close()
	prot, protW, err := mkSide(st.client, st, 1)
	if err != nil {
		return err
	}
	defer prot.close()
	var refSide *side
	if ref != nil {
		sd, _, err := mkSide(ref.client, ref, 1)
		if err != nil {
			return err
		}
		closeWriter := sd.close
		sd.close = func() { closeWriter(); ref.close() }
		refSide = &sd
	}

	var dirt float64
	m, err := b.measure(st, prot, bare, refSide, func() { dirt = protW.dirtyMiB })
	if err != nil {
		return err
	}
	b.counts["updates_per_slice"] = perSlice + s.tail
	b.counts["checkpoints"] = protW.ckpts
	if b.cfg.Trace {
		var wall float64
		for _, p := range m.ps {
			wall += p.wall.Seconds()
		}
		b.vals["core.checkpoint_mb_s"] = (protW.dirtyMiB - dirt) / wall
	}
	return b.check(st, s.recoveries, func(rec vfs.FS) error {
		return verifyPG(st.local, rec, st.proc, protW.walDirty)
	})
}

// pgDigest hashes the first writes the page writer issues for this seed.
func pgDigest(g *gen, seed int64, s pgSpec) string {
	client := newClientFS(newRAMFS(), nil, 1)
	client.digest = &opDigest{}
	w, err := newPageWriter(g.fork(seed+1), client, s)
	if err != nil {
		return ""
	}
	defer w.close()
	s.tail = 0
	w.spec = s
	w.slice(min(4096, s.ckptEvery*2)) //nolint:errcheck // ramFS writes cannot fail
	return client.digest.String()
}

// aggRate is client writes per second over all the slices together.
func aggRate(ps []sliceStat) float64 {
	var writes int64
	var wall time.Duration
	for _, p := range ps {
		writes, wall = writes+p.writes, wall+p.wall
	}
	return float64(writes) / wall.Seconds()
}
