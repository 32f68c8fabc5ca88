// Command ginja operates a Ginja-protected embedded database from the
// command line: boot the initial cloud copy, run a demo workload under
// protection, recover after a disaster, verify the backup, and inspect
// the cloud state.
//
// The cloud can be a local directory (an object store on another disk),
// or an HTTP endpoint served by cmd/cloudsim (an S3-style server).
//
// Usage:
//
//	ginja boot    -data ./db -cloud ./bucket [-engine postgresql]
//	ginja run     -data ./db -cloud ./bucket -duration 30s [-batch 100 -safety 1000]
//	ginja run     -data ./db -cloud ./bucket -metrics-addr :9090   # + /metrics /healthz /statusz /tracez
//	ginja recover -data ./db-restored -cloud ./bucket
//	ginja follow  -data ./db-replica -cloud ./bucket [-promote]
//	ginja verify  -cloud ./bucket
//	ginja status  -cloud ./bucket
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/s3http"
	"github.com/ginja-dr/ginja/internal/core"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/innoengine"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/vfs"
	"github.com/ginja-dr/ginja/internal/workload/tpcc"
)

type options struct {
	dataDir     string
	cloudSpec   string
	cloudToken  string
	engine      string
	batch       int
	safety      int
	uploaders   int
	compress    bool
	encrypt     bool
	password    string
	duration    time.Duration
	verbose     bool
	metricsAddr string
	retainFor   time.Duration
	retainMax   int
	followEvery time.Duration
	promote     bool
	adaptive    bool
	costCeiling float64
	deltas      bool
	deltaChain  int
	deltaRatio  float64
	prefix      string

	// registry is non-nil when -metrics-addr is set; store() and params()
	// route telemetry through it.
	registry *obs.Registry
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ginja:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	var o options
	fs.StringVar(&o.dataDir, "data", "./ginja-data", "local database directory")
	fs.StringVar(&o.cloudSpec, "cloud", "./ginja-bucket", "object store: a directory or an http:// endpoint")
	fs.StringVar(&o.cloudToken, "cloud-token", "", "bearer token for an http:// object store")
	fs.StringVar(&o.engine, "engine", "postgresql", "DBMS personality: postgresql or mysql")
	fs.IntVar(&o.batch, "batch", core.DefaultBatch, "B: updates per cloud synchronization")
	fs.IntVar(&o.safety, "safety", core.DefaultSafety, "S: maximum updates lost in a disaster")
	fs.IntVar(&o.uploaders, "uploaders", core.DefaultUploaders, "parallel upload threads")
	fs.BoolVar(&o.compress, "compress", false, "compress objects before upload")
	fs.BoolVar(&o.encrypt, "encrypt", false, "encrypt objects (requires -password)")
	fs.StringVar(&o.password, "password", "", "password for encryption / MAC keys")
	fs.DurationVar(&o.duration, "duration", 30*time.Second, "how long to run the demo workload")
	fs.BoolVar(&o.verbose, "v", false, "log replication events to stderr")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve /metrics (Prometheus), /healthz, /statusz and /tracez on this address (e.g. :9090)")
	fs.DurationVar(&o.retainFor, "retain", 0,
		"keep superseded cloud objects this long so `pitr restore` can hit any point in the window (0 = GC immediately)")
	fs.IntVar(&o.retainMax, "retain-objects", 0,
		"cap on retained superseded objects (0 = default cap; only meaningful with -retain)")
	fs.DurationVar(&o.followEvery, "follow-interval", 0,
		"follow only: poll cadence for tailing the bucket (0 = default)")
	fs.BoolVar(&o.promote, "promote", false,
		"follow only: on interrupt, promote the warm replica to a live site instead of just stopping")
	fs.BoolVar(&o.adaptive, "adaptive", false,
		"retune B and the batch timeout online from measured PUT latency and commit rate (-batch becomes the initial value, -safety the hard cap)")
	fs.Float64Var(&o.costCeiling, "cost-ceiling", 0,
		"adaptive only: $/day the retuned knobs may spend on WAL PUTs at S3 prices (0 = the one-dollar-per-month default)")
	fs.BoolVar(&o.deltas, "deltas", false,
		"serve dump-threshold crossings with incremental delta checkpoints (dirty pages only) instead of full re-dumps")
	fs.IntVar(&o.deltaChain, "max-delta-chain", 0,
		"deltas only: fold the chain into a fresh full dump after this many deltas (0 = default)")
	fs.Float64Var(&o.deltaRatio, "delta-compact-ratio", 0,
		"deltas only: fold early once the chain's summed payload exceeds this fraction of the database (0 = default)")
	fs.StringVar(&o.prefix, "prefix", "",
		"root every cloud object under this key prefix so many databases share one bucket (e.g. tenants/db7)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if o.metricsAddr != "" {
		o.registry = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(o.registry)
	}

	ctx := context.Background()
	switch sub {
	case "boot":
		return cmdBoot(ctx, o)
	case "run":
		return cmdRun(ctx, o)
	case "recover":
		return cmdRecover(ctx, o)
	case "verify":
		return cmdVerify(ctx, o)
	case "status":
		return cmdStatus(ctx, o)
	case "pitr":
		return cmdPITR(ctx, o, fs.Args())
	case "follow":
		return cmdFollow(ctx, o)
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

func (o options) store() (cloud.ObjectStore, error) {
	var store cloud.ObjectStore
	var err error
	if strings.HasPrefix(o.cloudSpec, "http://") || strings.HasPrefix(o.cloudSpec, "https://") {
		if o.cloudToken != "" {
			store = s3http.NewClientWithToken(o.cloudSpec, o.cloudToken, nil)
		} else {
			store = s3http.NewClient(o.cloudSpec, nil)
		}
	} else {
		store, err = cloud.NewDiskStore(o.cloudSpec)
		if err != nil {
			return nil, err
		}
	}
	if o.registry != nil {
		store = obs.InstrumentStore(store, o.registry, "cloud")
	}
	return store, nil
}

func (o options) params() core.Params {
	p := core.DefaultParams()
	p.Batch = o.batch
	p.Safety = o.safety
	p.Uploaders = o.uploaders
	p.Compress = o.compress
	p.Encrypt = o.encrypt
	p.Password = o.password
	if o.verbose {
		p.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	p.Metrics = o.registry
	p.RetainFor = o.retainFor
	if o.retainMax > 0 {
		p.RetainObjects = o.retainMax
	}
	if o.followEvery > 0 {
		p.FollowInterval = o.followEvery
	}
	p.AdaptiveBatching = o.adaptive
	p.CostCeilingPerDay = o.costCeiling
	p.DeltaCheckpoints = o.deltas
	if o.deltaChain > 0 {
		p.MaxDeltaChain = o.deltaChain
	}
	if o.deltaRatio > 0 {
		p.DeltaCompactRatio = o.deltaRatio
	}
	p.Prefix = o.prefix
	return p
}

// serveMetrics exposes the observability endpoints for the lifetime of
// the surrounding subcommand. It returns a shutdown func (a no-op when
// -metrics-addr is unset) and fails fast when the address is unusable.
func serveMetrics(o options, status func() any) (func(), error) {
	if o.registry == nil {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", o.metricsAddr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: obs.Handler(o.registry, status)}
	go srv.Serve(ln) //nolint:errcheck // closed via srv.Close
	fmt.Printf("observability: http://%s/metrics /healthz /statusz /tracez\n", ln.Addr())
	return func() { srv.Close() }, nil
}

func (o options) engineAndProc() (minidb.Engine, dbevent.Processor, error) {
	proc := dbevent.ForEngine(o.engine)
	if proc == nil {
		return nil, nil, fmt.Errorf("unknown engine %q", o.engine)
	}
	switch o.engine {
	case "postgresql":
		return pgengine.New(), proc, nil
	default:
		return innoengine.New(), proc, nil
	}
}

// newGinja builds the middleware plus the store it replicates to. The
// store must be constructed exactly once per process: InstrumentStore
// binds the "store:cloud" health check to the instance it wraps, so a
// second wrap would point /healthz at a store the pipeline never uses.
func (o options) newGinja() (*core.Ginja, vfs.FS, cloud.ObjectStore, error) {
	localFS, err := vfs.NewOSFS(o.dataDir)
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := o.store()
	if err != nil {
		return nil, nil, nil, err
	}
	_, proc, err := o.engineAndProc()
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := core.New(localFS, store, proc, o.params())
	return g, localFS, store, err
}

func cmdBoot(ctx context.Context, o options) error {
	g, _, _, err := o.newGinja()
	if err != nil {
		return err
	}
	if err := g.Boot(ctx); err != nil {
		return err
	}
	defer g.Close()
	view := g.View()
	fmt.Printf("booted: %d WAL objects and %d DB objects uploaded to %s\n",
		len(view.WALObjects()), len(view.DBObjects()), o.cloudSpec)
	return nil
}

func cmdRun(ctx context.Context, o options) error {
	g, _, store, err := o.newGinja()
	if err != nil {
		return err
	}
	stopMetrics, err := serveMetrics(o, func() any { return g.Stats() })
	if err != nil {
		return err
	}
	defer stopMetrics()
	// Boot if the cloud is empty, otherwise reboot. With -prefix set only
	// this database's subtree counts — another tenant's objects in a
	// shared bucket must not turn a first boot into a reboot.
	infos, err := cloud.NewPrefixStore(store, o.prefix).List(ctx, "")
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Println("empty cloud: booting")
		if err := g.Boot(ctx); err != nil {
			return err
		}
	} else {
		fmt.Println("existing cloud state: rebooting")
		if err := g.Reboot(ctx); err != nil {
			return err
		}
	}
	defer g.Close()

	engine, _, err := o.engineAndProc()
	if err != nil {
		return err
	}
	db, err := minidb.Open(g.FS(), engine, minidb.Options{})
	if err != nil {
		return err
	}
	cfg := tpcc.DefaultConfig()
	fmt.Printf("loading TPC-C (%d warehouse) ...\n", cfg.Warehouses)
	if err := tpcc.Load(db, cfg); err != nil {
		return err
	}
	fmt.Printf("running TPC-C for %s with B=%d S=%d ...\n", o.duration, o.batch, o.safety)
	res, err := tpcc.NewDriver(db, cfg).Run(ctx, o.duration)
	if err != nil {
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	if !g.Flush(time.Minute) {
		return fmt.Errorf("pending uploads did not drain")
	}
	s := g.Stats()
	fmt.Printf("Tpm-C %.0f, Tpm-Total %.0f\n", res.TpmC, res.TpmTotal)
	fmt.Printf("replication: %d updates → %d batches → %d WAL objects (%d KB), %d checkpoints, %d dumps\n",
		s.UpdatesObserved, s.Batches, s.WALObjectsUploaded, s.WALBytesUploaded/1024,
		s.Checkpoints, s.Dumps)
	fmt.Printf("commit-path blocked time: %s\n", s.BlockedTime.Round(time.Millisecond))
	return nil
}

func cmdRecover(ctx context.Context, o options) error {
	g, _, _, err := o.newGinja()
	if err != nil {
		return err
	}
	stopMetrics, err := serveMetrics(o, func() any { return g.Stats() })
	if err != nil {
		return err
	}
	defer stopMetrics()
	start := time.Now()
	if err := g.Recover(ctx); err != nil {
		return err
	}
	defer g.Close()
	engine, _, err := o.engineAndProc()
	if err != nil {
		return err
	}
	// Restart the database so its own crash recovery validates the files.
	db, err := minidb.Open(g.FS(), engine, minidb.Options{})
	if err != nil {
		return fmt.Errorf("recovered files failed DBMS restart: %w", err)
	}
	tables := db.Tables()
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Printf("recovered %d tables into %s in %s\n", len(tables), o.dataDir, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdVerify(ctx context.Context, o options) error {
	store, err := o.store()
	if err != nil {
		return err
	}
	_, proc, err := o.engineAndProc()
	if err != nil {
		return err
	}
	g, err := core.New(vfs.NewMemFS(), store, proc, o.params())
	if err != nil {
		return err
	}
	engine, _, err := o.engineAndProc()
	if err != nil {
		return err
	}
	res, err := g.Verify(ctx, vfs.NewMemFS(),
		func(fsys vfs.FS) error {
			db, err := minidb.Open(fsys, engine, minidb.Options{})
			if err != nil {
				return err
			}
			return db.Close()
		},
		func(fsys vfs.FS) error {
			db, err := minidb.Open(fsys, engine, minidb.Options{})
			if err != nil {
				return err
			}
			defer db.Close()
			fmt.Printf("probe: %d tables restored\n", len(db.Tables()))
			return nil
		})
	if err != nil {
		return fmt.Errorf("backup verification FAILED: %w", err)
	}
	fmt.Printf("backup verified: %d objects checked (%d KB downloaded), DBMS restart ok=%v, probe ok=%v, took %s\n",
		res.ObjectsChecked, res.BytesDownloaded/1024, res.RestartOK, res.ProbeOK, res.Duration.Round(time.Millisecond))
	return nil
}

func cmdStatus(ctx context.Context, o options) error {
	store, err := o.store()
	if err != nil {
		return err
	}
	// With -prefix set, report on that tenant's subtree only, with the
	// prefix stripped so the WAL/DB classification below still applies.
	metered := cloud.NewMeteredStore(cloud.NewPrefixStore(store, o.prefix), cloud.AmazonS3May2017())
	infos, err := metered.List(ctx, "")
	if err != nil {
		return err
	}
	var walCount, dbCount int
	var total int64
	for _, info := range infos {
		total += info.Size
		if strings.HasPrefix(info.Name, "WAL/") {
			walCount++
		} else {
			dbCount++
		}
	}
	fmt.Printf("cloud %s: %d WAL objects, %d DB objects, %.2f MB total\n",
		o.cloudSpec, walCount, dbCount, float64(total)/(1<<20))
	prices := cloud.AmazonS3May2017()
	fmt.Printf("storage cost at S3 prices: $%.4f/month\n", prices.StorageCost(total))
	return nil
}

// cmdPITR lists or restores point-in-time recovery points. When the
// protected instance runs with -retain, superseded WAL and DB objects stay
// in the bucket for that window (capped by -retain-objects), so restore
// hits ANY commit timestamp inside it (RecoverAt's exact consistent
// prefix); without it, the bucket holds only the newest dump and what
// follows it.
func cmdPITR(ctx context.Context, o options, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ginja pitr [flags] list | restore <timestamp>")
	}
	store, err := o.store()
	if err != nil {
		return err
	}
	_, proc, err := o.engineAndProc()
	if err != nil {
		return err
	}
	g, err := core.New(vfs.NewMemFS(), store, proc, o.params())
	if err != nil {
		return err
	}
	switch args[0] {
	case "list":
		// g's store was prefixed inside core.New; this direct listing
		// must strip the same prefix for LoadFromList to parse names.
		infos, err := cloud.NewPrefixStore(store, o.prefix).List(ctx, "")
		if err != nil {
			return err
		}
		if err := g.View().LoadFromList(infos); err != nil {
			return err
		}
		fmt.Println("retained recovery points (dump generations, oldest first):")
		for _, d := range g.View().DBObjects() {
			if d.Type != core.Dump {
				continue
			}
			fmt.Printf("  generation ts=%d (%.1f KB)\n", d.Ts, float64(d.Size)/1024)
		}
		fmt.Println("restore accepts any commit timestamp >= the oldest generation (exact prefix within the retention window)")
		return nil
	case "restore":
		if len(args) < 2 {
			return fmt.Errorf("usage: ginja pitr [flags] restore <timestamp>")
		}
		var ts int64
		if _, err := fmt.Sscanf(args[1], "%d", &ts); err != nil {
			return fmt.Errorf("bad timestamp %q: %w", args[1], err)
		}
		target, err := vfs.NewOSFS(o.dataDir)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := g.RecoverAt(ctx, target, ts); err != nil {
			return err
		}
		fmt.Printf("restored to ts=%d into %s in %s\n",
			ts, o.dataDir, time.Since(start).Round(time.Millisecond))
		return nil
	default:
		return fmt.Errorf("unknown pitr action %q (want list or restore)", args[0])
	}
}

// cmdFollow runs a warm standby: it tails the bucket into -data until
// interrupted, printing the replication lag; with -promote the interrupt
// is treated as the disaster and the replica is promoted to a live site
// (the database engine then validates the files via its own restart).
func cmdFollow(ctx context.Context, o options) error {
	localFS, err := vfs.NewOSFS(o.dataDir)
	if err != nil {
		return err
	}
	store, err := o.store()
	if err != nil {
		return err
	}
	engine, proc, err := o.engineAndProc()
	if err != nil {
		return err
	}
	fol, err := core.NewFollower(localFS, store, proc, o.params())
	if err != nil {
		return err
	}
	stopMetrics, err := serveMetrics(o, func() any { return fol.Stats() })
	if err != nil {
		return err
	}
	defer stopMetrics()
	if err := fol.Start(ctx); err != nil {
		return err
	}
	fmt.Printf("following %s into %s (interrupt to %s)\n",
		o.cloudSpec, o.dataDir, map[bool]string{true: "promote", false: "stop"}[o.promote])

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s := fol.Stats()
			fmt.Printf("lag %s, applied ts %d (%d WAL / %d DB objects, %d polls)\n",
				s.Lag.Round(time.Millisecond), s.AppliedTs, s.AppliedWALObjects, s.AppliedDBObjects, s.Polls)
		case <-sigs:
			if !o.promote {
				return fol.Close()
			}
			start := time.Now()
			g, err := fol.Promote(ctx)
			if err != nil {
				return err
			}
			defer g.Close()
			db, err := minidb.Open(g.FS(), engine, minidb.Options{})
			if err != nil {
				return fmt.Errorf("promoted files failed DBMS restart: %w", err)
			}
			tables := db.Tables()
			if err := db.Close(); err != nil {
				return err
			}
			fmt.Printf("promoted: %d tables live in %s after %s\n",
				len(tables), o.dataDir, time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ginja <subcommand> [flags]

subcommands:
  boot      upload the initial copy of a database and enable protection
  run       boot/reboot, then run a TPC-C demo workload under protection
  recover   rebuild the database from the cloud after a disaster
  verify    check the backup (MACs, DBMS restart, probe queries)
  status    summarise the cloud objects and their storage cost
  pitr      list / restore retained point-in-time recovery points
  follow    run a warm standby tailing the bucket (-promote for handoff)

common flags: -data DIR -cloud DIR|URL -engine postgresql|mysql
              -batch B -safety S -compress -encrypt -password PW
              -adaptive -cost-ceiling $/DAY   retune B/TB online under a spend ceiling
              -deltas -max-delta-chain N -delta-compact-ratio F   incremental delta checkpoints
              -retain 24h -retain-objects N   point-in-time retention window
              -metrics-addr :9090   serve /metrics /healthz /statusz /tracez`)
}
