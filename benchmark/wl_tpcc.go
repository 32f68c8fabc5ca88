package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
	"github.com/ginja-dr/ginja/internal/workload/tpcc"
)

// tpccConfig is paper Fig. 5's workload at the scale this repo's TPC-C
// loads in seconds (larger scales make tpcc.Load take minutes). Terminals
// stays at 2: the load generators must not outnumber the seed box's cores.
func tpccConfig(b *bench) tpcc.Config {
	return tpcc.Config{
		Warehouses: 1,
		Districts:  10,
		Customers:  int(b.scaled(100, 5)),
		Items:      int(b.scaled(1000, 20)),
		Terminals:  2,
		Seed:       b.cfg.Seed,
	}
}

// The TPC-C database is a few MiB: set-up and recovery take a fraction of a
// second and are repeated this often for their medians.
const (
	tpccSetups     = 5
	tpccRecoveries = 7
)

// dbOptions checkpoints often enough that every slice crosses several, so
// the checkpointer and WAL garbage collection are part of what is measured.
var dbOptions = minidb.Options{AutoCheckpointCommits: 500}

// tableDigest hashes every row of every TPC-C table in key order.
func tableDigest(db *minidb.DB) (string, error) {
	h := sha256.New()
	for _, table := range tpcc.Tables() {
		rows, err := db.Scan(table, "")
		if err != nil {
			return "", err
		}
		for _, kv := range rows {
			fmt.Fprintf(h, "%s\x00%s\x00%d\x00", table, kv.Key, len(kv.Value))
			h.Write(kv.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyFS copies every file of src into dst.
func copyFS(src, dst vfs.FS) error {
	paths, err := vfs.Walk(src, "")
	if err != nil {
		return err
	}
	for _, p := range paths {
		data, err := vfs.ReadFile(src, p)
		if err != nil {
			return err
		}
		if err := vfs.WriteFile(dst, p, data); err != nil {
			return err
		}
	}
	return nil
}

// loadTPCC creates the TPC-C database on an empty file system and closes it
// (a clean checkpoint). It returns the digest of every write Load issued: the
// op stream of this workload's seeded part.
func loadTPCC(fsys vfs.FS, cfg tpcc.Config) (digest string, writes int64, err error) {
	client := newClientFS(fsys, nil, 1)
	client.digest = &opDigest{}
	db, err := minidb.Open(client, pgengine.New(), dbOptions)
	if err != nil {
		return "", 0, err
	}
	if err := tpcc.Load(db, cfg); err != nil {
		db.Close() //nolint:errcheck // the load error is the one to report
		return "", 0, fmt.Errorf("tpcc load: %w", err)
	}
	if err := db.Close(); err != nil {
		return "", 0, err
	}
	return client.digest.String(), client.writes.Load(), nil
}

// tpccSide drives one database until the terminals have issued `writes` WAL
// writes (one or two per commit). tpcc.Driver only runs against the clock, so the slice's
// context is cancelled from the write path when the count is reached (the
// transactions in flight finish); the duration passed to Run is only a guard.
// Fixed work matters here more than anywhere: this small database slows as
// its order tables grow, so slice k must find it in the same state every run.
func tpccSide(b *bench, fs *clientFS, db *minidb.DB, cfg tpcc.Config, writes int64, after func() error) side {
	var n int64
	guard := time.Duration(b.cfg.Seconds * 3 * float64(time.Second))
	return side{fs: fs, after: after, work: func() (int64, int64, error) {
		n++
		c := cfg
		c.Seed = cfg.Seed*1000 + n // a fresh transaction stream per slice
		ctx, cancel := context.WithCancel(b.ctx)
		defer cancel()
		fs.stopAt, fs.onStop = fs.walWrites.Load()+writes, cancel
		res, err := tpcc.NewDriver(db, c).Run(ctx, guard)
		if err != nil {
			return 0, 0, err
		}
		var tx int64
		for _, v := range res.Counts {
			tx += v
		}
		return tx + res.Errors, res.Errors, nil
	}}
}

// txRate is transactions per second over all the slices together.
func txRate(ss []sliceStat) float64 {
	var tx int64
	var wall time.Duration
	for _, s := range ss {
		tx, wall = tx+s.units, wall+s.wall
	}
	return float64(tx) / wall.Seconds()
}

// runTPCC is paper Fig. 5: the same TPC-C database on the bare local file
// system and under Ginja, in alternating slices, then the durability check
// through a real engine's crash recovery.
func runTPCC(b *bench) error {
	cfg := tpccConfig(b)
	params := core.DefaultParams()
	// TB's 10 s default would make every slice's untimed Flush wait that long;
	// 300 ms still leaves every batch cut by count (100 commits take ≈ 100 ms),
	// as with the default, so the PUT count does not depend on timing.
	// (Scaled with the run length so the test file's 0.4 s runs do not wait.)
	params.BatchTimeout = time.Duration(b.cfg.Seconds * 30 * float64(time.Millisecond))
	params.Compress, params.Encrypt, params.Password = true, true, password
	// Sized on the seed box: ≈1 000 commits/s on either side. More commits do
	// not buy a steadier number: twice as many halve the rate (the order tables
	// grow and minidb scans them), and the spread over seeds stays.
	slice := b.scaled(int64(1000*b.cfg.Seconds/(2*measuredRounds)), 40)
	engine := pgengine.New()

	// Load once on the bare file system; both sides start from copies of it.
	t0 := time.Now()
	loaded := newRAMFS()
	var err error
	if b.digest, b.counts["load_writes"], err = loadTPCC(loaded, cfg); err != nil {
		return err
	}
	load := time.Since(t0)

	var (
		setups, boots []time.Duration
		ref, st       *stack
		refDB, protDB *minidb.DB
	)
	for i := 0; i < tpccSetups; i++ {
		ts := time.Now()
		local := newRAMFS()
		if err := copyFS(loaded, local); err != nil {
			return err
		}
		copied := time.Since(ts)
		traced := b.cfg.Trace && i == tpccSetups-1
		k, err := b.newStack(local, stackOpts{params: params, traced: traced, sample: 1})
		if err != nil {
			return err
		}
		to := time.Now()
		kdb, err := minidb.Open(k.client, engine, dbOptions)
		if err != nil {
			k.close()
			return err
		}
		k.setup += copied + time.Since(to)
		setups, boots = append(setups, k.setup), append(boots, k.boot)
		switch {
		case i == tpccSetups-1:
			st, protDB = k, kdb
		case b.cfg.Trace && i == tpccSetups-2:
			ref, refDB = k, kdb
		default:
			kdb.Close() //nolint:errcheck // discarded set-up repeat
			k.close()
			runtime.GC() // its tree and bucket are the harness's garbage, not the run's
		}
	}
	defer st.close()
	b.setupMetrics(load, setups, boots, st.treeBytes)
	bareLocal := newRAMFS()
	if err := copyFS(loaded, bareLocal); err != nil {
		return err
	}
	bareFS := newClientFS(bareLocal, nil, 1)
	bareDB, err := minidb.Open(bareFS, engine, dbOptions)
	if err != nil {
		return err
	}
	defer bareDB.Close()
	b.phase("setup", t0)

	bare := tpccSide(b, bareFS, bareDB, cfg, slice, nil)
	prot := tpccSide(b, st.client, protDB, cfg, slice, st.settle)
	var refSide *side
	if ref != nil {
		sd := tpccSide(b, ref.client, refDB, cfg, slice, ref.settle)
		sd.close = func() {
			refDB.Close() //nolint:errcheck // reference database, checked by nothing
			ref.close()
		}
		refSide = &sd
	}
	m, err := b.measure(st, prot, bare, refSide, nil)
	if err != nil {
		return err
	}
	for _, p := range m.ps {
		b.counts["measured_tx"] += p.units
	}
	if b.cfg.Trace {
		b.vals["minidb.tx_s"] = txRate(m.ref)
		b.vals["minidb.unprotected_tx_s"] = txRate(m.bs)
		b.vals["minidb.load_s"] = load.Seconds()
	}

	// Durability through a real engine: close the primary, recover the
	// bucket elsewhere, let minidb run its crash recovery on the result, and
	// compare every row.
	want, err := tableDigest(protDB)
	if err != nil {
		return err
	}
	if err := protDB.Close(); err != nil {
		return err
	}
	if err := st.settle(); err != nil {
		b.fail(1, "settle after close: %v", err)
		return err
	}
	var reopen time.Duration
	err = b.check(st, tpccRecoveries, func(rec vfs.FS) error {
		tr := time.Now()
		rdb, err := minidb.Open(rec, engine, dbOptions)
		if err != nil {
			return fmt.Errorf("reopen recovered tree: %w", err)
		}
		reopen = time.Since(tr)
		defer rdb.Close()
		got, err := tableDigest(rdb)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("table digest %s after recovery, primary has %s", got[:12], want[:12])
		}
		return nil
	})
	if b.cfg.Trace {
		b.vals["minidb.reopen_after_recover_s"] = reopen.Seconds()
	}
	return err
}
