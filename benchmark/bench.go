package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/vfs"
)

// Run shape shared by all workloads. A measured run is rounds of one
// protected slice then one bare slice of the same client work, so both sides
// age and see machine noise together; the first round is warm-up.
const (
	measuredRounds = 5
	tracedRounds   = 2 // a traced run: 2 untraced reference rounds, then 2 traced
	settleTimeout  = 60 * time.Second
	password       = "ginja-benchmark"
)

type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string
	// Scale shrinks op counts and tree sizes. It is 1 in every run made from
	// the command line; only the test file sets it lower.
	Scale float64
}

// bench is one run's context: where it writes, what it has measured so far.
type bench struct {
	cfg config
	ctx context.Context
	gen *gen
	tr  *tracer // nil unless cfg.Trace

	vals      values
	attempted int64
	failed    int64
	phases    map[string]float64 // wall seconds per phase
	counts    map[string]int64   // op and sample counts
	digest    string
	commit    []layerShare // median traced commit, sync_commit only
	commitNs  int64

	// beforeCheck, when set, runs just before the recovery check; the test
	// file uses it to corrupt a bucket object.
	beforeCheck func(*stack)
}

// fail counts n failed operations and says why on stderr.
func (b *bench) fail(n int64, format string, args ...any) {
	b.failed += n
	fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
}

func (b *bench) phase(name string, t0 time.Time) { b.phases[name] += time.Since(t0).Seconds() }

// scaled applies cfg.Scale to a count, never returning less than floor.
func (b *bench) scaled(n int64, floor int64) int64 {
	return max(int64(float64(n)*b.cfg.Scale), floor)
}

// stack is one protected database: a local tree, a bucket, and Ginja between
// them, with the benchmark's decorators at the seams.
type stack struct {
	local  vfs.FS
	mem    *cloud.MemStore
	http   *httpBackend // sync_commit only
	store  *meterStore
	proc   dbevent.Processor
	params core.Params
	g      *core.Ginja
	client *clientFS // the file system the client writes through

	// trace-only decorators
	reg    *obs.Registry
	tlocal *timedLocal
	tobs   *timedObserver
	tproc  *timedProc

	boot      time.Duration // Boot alone
	setup     time.Duration // New and Boot; callers add what building the tree cost
	treeBytes int64
}

type stackOpts struct {
	params core.Params
	http   bool
	traced bool
	sample int64 // trace 1 client write in sample
}

// newStack builds Ginja over the tree in local and Boots it into a fresh
// bucket. Untraced, the client writes through g.FS() itself and
// Params.Metrics is nil; traced, the same InterceptFS is assembled here
// around timing decorators (*Ginja is a public vfs.Observer).
func (b *bench) newStack(local vfs.FS, o stackOpts) (*stack, error) {
	var err error
	tNew := time.Now()
	st := &stack{local: local, mem: cloud.NewMemStore(), params: o.params, proc: dbevent.NewPGProcessor()}
	var tr *tracer
	if o.traced {
		tr = b.tr
	}
	var backend cloud.ObjectStore = st.mem
	if o.http {
		if st.http, err = newHTTPBackend(st.mem, tr); err != nil {
			return nil, err
		}
		backend = st.http.client
	}
	st.store = newMeterStore(backend, tr)
	if o.traced {
		st.reg = obs.NewRegistry()
		st.params.Metrics = st.reg
		st.tproc = &timedProc{Processor: st.proc, tr: tr}
		st.proc = st.tproc
	}
	if st.g, err = core.New(local, st.store, st.proc, st.params); err != nil {
		st.close()
		return nil, err
	}
	if st.treeBytes, err = treeBytes(local, nil); err != nil {
		st.close()
		return nil, err
	}
	t0 := time.Now()
	err = st.g.Boot(b.ctx)
	st.boot = time.Since(t0)
	st.setup = time.Since(tNew)
	b.attempted++
	if err != nil {
		st.close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	tr.root("core.boot", t0, st.boot)
	var fs vfs.FS = st.g.FS()
	if o.traced {
		st.tlocal = &timedLocal{FS: local, tr: tr}
		st.tobs = &timedObserver{Observer: st.g, tr: tr}
		fs = vfs.NewInterceptFS(st.tlocal, st.tobs)
	}
	st.client = newClientFS(fs, tr, max(o.sample, 1))
	return st, nil
}

// flush waits until every commit so far is in the bucket.
func (st *stack) flush() error {
	if !st.g.Flush(settleTimeout) {
		return errors.New("Flush timed out")
	}
	return st.g.Err()
}

// settle waits until everything written so far — commits, checkpoints, dumps
// and the garbage collection they trigger — is done.
func (st *stack) settle() error {
	if err := st.flush(); err != nil {
		return err
	}
	if !st.g.SyncCheckpoints(settleTimeout) {
		return errors.New("SyncCheckpoints timed out")
	}
	return st.g.Err()
}

func (st *stack) close() {
	if st.g != nil {
		st.g.Close() //nolint:errcheck // the run's verdict comes from settle and the recovery check
	}
	if st.http != nil {
		st.http.close()
	}
}

// treeBytes sums file sizes under fsys; keep (when non-nil) filters paths.
func treeBytes(fsys vfs.FS, keep func(string) bool) (int64, error) {
	paths, err := vfs.Walk(fsys, "")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		if keep != nil && !keep(p) {
			continue
		}
		fi, err := fsys.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// side is one half of a round: the client's work on the protected or on the
// bare file system.
type side struct {
	fs *clientFS
	// work does one slice of client work and returns workload units done
	// (transactions for tpcc, updates otherwise) and how many of them failed.
	work func() (units, failed int64, err error)
	// settle, on the protected side, is the part of catching the bucket up
	// that the slice's clock covers: Flush where commits are what is
	// measured, SyncCheckpoints too where checkpoints are (bulk_cycle),
	// nothing for tpcc, whose terminals are the clock.
	settle func() error
	// after runs once the clock has stopped: whatever is left until the
	// bucket holds everything, so that no upload runs into the bare slice.
	after func() error
	// close releases the client (file handles, the database) when its rounds
	// are over.
	close func()
}

type sliceStat struct {
	writes, units int64
	wall, cpu     time.Duration
}

func (b *bench) slice(s side) (sliceStat, error) {
	w0 := s.fs.writes.Load()
	e0 := s.fs.errs.Load()
	t0, c0 := time.Now(), cpuTime()
	units, failed, err := s.work()
	if err == nil && s.settle != nil {
		err = s.settle()
	}
	st := sliceStat{units: units, wall: time.Since(t0), cpu: cpuTime() - c0, writes: s.fs.writes.Load() - w0}
	if err == nil && s.after != nil {
		err = s.after()
	}
	b.attempted += max(st.writes, units)
	if n := failed + s.fs.errs.Load() - e0; n > 0 {
		b.fail(n, "%d client operations failed in a slice", n)
	}
	return st, err
}

// rounds runs one warm-up round, then n measured rounds of (protected, bare).
// bare may be nil (a traced run's untraced reference). between runs after the
// warm-up, before the first measured slice.
func (b *bench) rounds(prot side, bare *side, n int, between func()) (ps, bs []sliceStat, err error) {
	for i := -1; i < n; i++ {
		if i == 0 {
			prot.fs.resetSamples()
			if between != nil {
				between()
			}
		}
		p, err := b.slice(prot)
		if err != nil {
			return nil, nil, fmt.Errorf("protected slice: %w", err)
		}
		var q sliceStat
		if bare != nil {
			if q, err = b.slice(*bare); err != nil {
				return nil, nil, fmt.Errorf("bare slice: %w", err)
			}
		}
		if i >= 0 {
			ps, bs = append(ps, p), append(bs, q)
		}
	}
	return ps, bs, nil
}

// measured is what the rounds of one run produced.
type measured struct {
	ps, bs []sliceStat // measured protected and bare slices
	ref    []sliceStat // a traced run's untraced reference slices
}

// measure runs the rounds of a run: in a traced run first the untraced
// reference rounds on ref (closed when they are over), then the measured
// rounds on st. It fills the end-to-end metrics and, traced, the commit- and
// checkpoint-path layers. mark, when set, runs at the start of the measured
// window.
func (b *bench) measure(st *stack, prot, bare side, ref *side, mark func()) (measured, error) {
	var m measured
	if ref != nil {
		t0 := time.Now()
		ps, _, err := b.rounds(*ref, nil, tracedRounds, nil)
		ref.close()
		if err != nil {
			return m, err
		}
		m.ref = ps
		b.clientTimings(ref.fs, ps)
		b.phase("reference_rounds", t0)
	}
	t0 := time.Now()
	n := measuredRounds
	if b.cfg.Trace {
		n = tracedRounds
	}
	var (
		s0  storeSnap
		lay *layerProbe
		err error
	)
	m.ps, m.bs, err = b.rounds(prot, &bare, n, func() {
		s0 = st.snap()
		st.store.resetPeak()
		if mark != nil {
			mark()
		}
		if b.cfg.Trace {
			lay = startLayerProbe(st)
		}
	})
	if err != nil {
		return m, err
	}
	b.phase("measured_rounds", t0)
	if err := b.endToEndFromRounds(st, m.ps, m.bs, s0); err != nil {
		return m, err
	}
	if lay != nil {
		lay.finish(b, m.ps, aggRate(m.ref))
	}
	return m, nil
}

// storeSnap is the store's counters at one instant.
type storeSnap struct{ puts, bytes int64 }

func (st *stack) snap() storeSnap {
	return storeSnap{st.store.putCount.Load(), st.store.putBytes.Load()}
}

// endToEndFromRounds fills every end-to-end metric that comes from the
// measured rounds; setup_s is filled by the set-up phase. None of them is an
// absolute timing: on the seed box those spread wider than any bound the
// contract allows, so they are per-layer (clientTimings, README).
func (b *bench) endToEndFromRounds(st *stack, ps, bs []sliceStat, s0 storeSnap) error {
	var writes int64
	for _, p := range ps {
		writes += p.writes
	}
	s1 := st.snap()
	if writes == 0 {
		return errors.New("measured rounds did no client writes")
	}
	dbBytes, err := treeBytes(st.local, func(p string) bool { return st.proc.FileKind(p) == dbevent.KindData })
	if err != nil {
		return err
	}
	_, peak := st.store.bucketBytes()
	b.vals["protected_ratio"] = aggRate(ps) / aggRate(bs)
	b.vals["puts_per_kupdate"] = float64(s1.puts-s0.puts) / float64(writes) * 1000
	b.vals["cloud_bytes_per_update"] = float64(s1.bytes-s0.bytes) / float64(writes)
	b.vals["bucket_bytes_per_db_byte"] = float64(peak) / float64(dbBytes)
	b.vals["peak_rss_mb"] = peakRSSMiB()
	b.counts["measured_client_writes"] = writes
	b.counts["latency_samples"] = int64(len(st.client.samples()))
	b.counts["measured_puts"] = s1.puts - s0.puts
	return nil
}

// clientTimings fills what the client sees on the clock — rate, commit
// latency, CPU per write — from the slices ps it ran through fs. A traced run
// reads them off its untraced reference rounds.
func (b *bench) clientTimings(fs *clientFS, ps []sliceStat) {
	var writes int64
	var cpu time.Duration
	for _, p := range ps {
		writes, cpu = writes+p.writes, cpu+p.cpu
	}
	lat := fs.samples()
	v := b.vals
	v["client.commit_ops_s"] = aggRate(ps)
	v["client.commit_p50_us"] = quantileNs(lat, 0.50) / 1e3
	v["client.commit_p90_us"] = quantileNs(lat, 0.90) / 1e3
	v["client.commit_p99_us"] = quantileNs(lat, 0.99) / 1e3
	v["client.commit_p999_us"] = quantileNs(lat, 0.999) / 1e3
	if len(lat) > 0 {
		v["client.commit_max_us"] = float64(lat[len(lat)-1]) / 1e3
	}
	v["client.samples"] = float64(len(lat))
	v["process.cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(max(writes, 1))
}

// medianDur is the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	_, med, _ := quartiles(xs)
	return time.Duration(med)
}

// setupMetrics fills setup_s and, traced, core.dump_mb_s from the set-up
// repeats; once is set-up work done a single time (tpcc's Load).
func (b *bench) setupMetrics(once time.Duration, setups, boots []time.Duration, treeBytes int64) {
	b.vals["setup_s"] = (once + medianDur(setups)).Seconds()
	if b.cfg.Trace {
		b.vals["core.dump_mb_s"] = float64(treeBytes) / (1 << 20) / medianDur(boots).Seconds()
	}
}

// recoverOnce restores st's bucket onto the empty file system target through
// a new Ginja instance, as a site that lost the primary would.
func (b *bench) recoverOnce(st *stack, target vfs.FS) (*core.RecoveryBreakdown, time.Duration, error) {
	params := st.params
	params.Metrics = nil
	g, err := core.New(target, st.store, dbevent.NewPGProcessor(), params)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = g.RecoverAt(b.ctx, target, -1)
	d := time.Since(t0)
	b.attempted++
	if err != nil {
		return nil, d, fmt.Errorf("recover: %w", err)
	}
	if st.client.tr != nil {
		b.tr.root("core.recover", t0, d)
	}
	return g.Stats().LastRecovery, d, nil
}

// check is the correctness check and the recovery measurement in one: n
// recoveries of st's bucket, each onto an empty file system and each compared
// with the primary by verify. Traced, core.recovery_mb_s is their median, and
// the last recovery's breakdown and the replays fill the recovery-side layers.
func (b *bench) check(st *stack, n int, verify func(recovered vfs.FS) error) error {
	defer b.phase("recover_check", time.Now())
	if b.beforeCheck != nil {
		b.beforeCheck(st)
	}
	var (
		durs []time.Duration
		last *core.RecoveryBreakdown
	)
	for i := 0; i < n; i++ {
		target := newRAMFS()
		bd, d, err := b.recoverOnce(st, target)
		if err != nil {
			return err
		}
		if err := verify(target); err != nil {
			b.fail(1, "recovery %d: %v", i, err)
		}
		durs, last = append(durs, d), bd
	}
	b.counts["recoveries"] = int64(n)
	b.counts["recovered_bytes"] = last.VerifiedBytes
	if b.cfg.Trace {
		b.vals["core.recovery_mb_s"] = float64(last.VerifiedBytes) / (1 << 20) / medianDur(durs).Seconds()
		recoveryLayer(b, st, last)
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (VmHWM; ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sortUint32(s []uint32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantileNs reads quantile q from ascending ns samples, interpolating
// between neighbours so a coarse clock does not quantise the result.
func quantileNs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
