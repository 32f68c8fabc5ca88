// Command ginja-bench regenerates everything the paper's evaluation
// reports, one subcommand per table or figure:
//
//   - the analytic cost model (§3, §7): figure1, figure4, table2,
//     recovery-costs, and custom for an arbitrary deployment;
//   - the §8 measurements — figure2, table1, figure5, figure6, table3,
//     table4, figure7, ablations — which run the full Ginja stack (minidb
//     with a PostgreSQL or MySQL I/O personality, the interception layer,
//     the commit pipeline) under TPC-C against the simulated storage
//     cloud on the real clock; absolute numbers depend on the machine and
//     the time-compressed network model, the shapes (who wins, by what
//     factor) reproduce the paper's;
//   - json, which benchmarks one cloud path on the deterministic simulated
//     WAN (latencies in virtual time: exact and machine-independent; only
//     the allocation profiles read the runtime's real counters), enforces
//     that path's gates and writes BENCH_<path>.json.
//
// Usage:
//
//	ginja-bench figure1 [-budget 1.0]
//	ginja-bench custom  -size 10 -updates 100 -batch 100 [-cr 1.43]
//	ginja-bench figure5 [-engine postgresql|mysql|both] [-duration 3s]
//	ginja-bench figure7 [-warehouses 1,5,10] [-workload 2s]
//	ginja-bench all     [-duration 2s]
//	ginja-bench json    [-path datapath|commit|recovery|fleet] [-out FILE] [-parallel 5] [-smoke]
//
// `ginja-bench` alone lists every subcommand.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/costmodel"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ginja-bench:", err)
		os.Exit(1)
	}
}

// options holds every flag value; each subcommand registers the group it
// reads.
type options struct {
	// evalFlags
	engines    []string
	duration   time.Duration
	warehouses string
	workload   time.Duration
	// figure1
	budget float64
	// customFlags
	deployment costmodel.Deployment
	// jsonFlags
	path     string
	out      string
	parallel int
	smoke    bool
}

func evalFlags(fs *flag.FlagSet, o *options) {
	fs.Func("engine", "postgresql, mysql or both (default both)", func(v string) (err error) {
		o.engines, err = enginesOf(v)
		return err
	})
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "measurement window per configuration cell")
	fs.StringVar(&o.warehouses, "warehouses", "1,5,10", "comma-separated warehouse scales (figure7)")
	fs.DurationVar(&o.workload, "workload", 2*time.Second, "pre-disaster workload duration (figure7)")
}

func budgetFlag(fs *flag.FlagSet, o *options) {
	fs.Float64Var(&o.budget, "budget", o.budget, "monthly budget in dollars")
}

func customFlags(fs *flag.FlagSet, o *options) {
	d := &o.deployment
	fs.Float64Var(&d.DBSizeGB, "size", 10, "database size in GB")
	fs.Float64Var(&d.UpdatesPerMinute, "updates", 100, "updates per minute (W)")
	fs.Float64Var(&d.Batch, "batch", 100, "updates per synchronization (B)")
	fs.Float64Var(&d.CompressionRatio, "cr", 1.43, "compression ratio (1 = none)")
	fs.Float64Var(&d.CheckpointPeriodMin, "ckpt-period", 60, "checkpoint period (minutes)")
	fs.Float64Var(&d.CheckpointSizeMB, "ckpt-size", 100, "checkpoint size (MB)")
}

func jsonFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.path, "path", "datapath", "which path to benchmark: datapath, commit, recovery or fleet")
	fs.StringVar(&o.out, "out", "", "output file (default BENCH_<path>.json)")
	fs.IntVar(&o.parallel, "parallel", 5, "datapath only: parallelism of the parallel run (serial run is always 1)")
	fs.BoolVar(&o.smoke, "smoke", false, "small scenario, print to stdout, write no file")
}

// subcommand is one row of the tables below: run prints one table to w.
// A perEngine subcommand is run once for each engine -engine selects.
type subcommand struct {
	name      string
	help      string
	flags     func(*flag.FlagSet, *options) // nil: takes none
	perEngine bool
	run       func(ctx context.Context, w io.Writer, o *options, engine string) error
}

// analytic adapts a renderer that needs no measurement and no flags.
func analytic(render func(io.Writer)) func(context.Context, io.Writer, *options, string) error {
	return func(_ context.Context, w io.Writer, _ *options, _ string) error {
		render(w)
		return nil
	}
}

// tables lists every table and figure of the paper, in the order `all`
// prints them.
var tables = []subcommand{
	{"figure1", "the $1/month capacity frontier (analytic)", budgetFlag, false,
		func(_ context.Context, w io.Writer, o *options, _ string) error {
			experiments.FprintFigure1(w, o.budget)
			return nil
		}},
	{"figure2", "Batch/Safety blocking semantics (B=2, S=20)", nil, false,
		func(ctx context.Context, w io.Writer, _ *options, _ string) error {
			res, err := experiments.Figure2(ctx)
			if err == nil {
				experiments.FprintFigure2(w, res)
			}
			return err
		}},
	{"table1", "event detection per DBMS", nil, false, analytic(printTable1)},
	{"figure4", "monthly cost vs workload for B ∈ {10,100,1000} (analytic)", nil, false, analytic(experiments.FprintFigure4)},
	{"table2", "Laboratory/Hospital vs EC2 VM comparison (analytic)", nil, false, analytic(experiments.FprintTable2)},
	{"recovery-costs", "cost of recovering from a disaster, §7.3 (analytic)", nil, false, analytic(experiments.FprintRecoveryCosts)},
	{"figure5", "TPC-C throughput across the B×S grid (+ ext4/FUSE baselines)", evalFlags, true,
		func(ctx context.Context, w io.Writer, o *options, e string) error {
			rows, err := experiments.Figure5(ctx, e, o.duration)
			if err == nil {
				experiments.FprintFigure5(w, e, rows)
			}
			return err
		}},
	{"figure6", "compression & encryption effect on throughput", evalFlags, true,
		func(ctx context.Context, w io.Writer, o *options, e string) error {
			rows, err := experiments.Figure6(ctx, e, o.duration)
			if err == nil {
				experiments.FprintFigure6(w, e, rows)
			}
			return err
		}},
	{"table3", "cloud usage: PUTs, object size, PUT latency", evalFlags, true,
		func(ctx context.Context, w io.Writer, o *options, e string) error {
			rows, err := experiments.Table3(ctx, e, o.duration)
			if err == nil {
				experiments.FprintTable3(w, e, rows, o.duration)
			}
			return err
		}},
	{"table4", "database server CPU/memory usage", evalFlags, true,
		func(ctx context.Context, w io.Writer, o *options, e string) error {
			rows, err := experiments.Table4(ctx, e, o.duration)
			if err == nil {
				experiments.FprintTable4(w, e, rows)
			}
			return err
		}},
	{"figure7", "recovery time by database size, on-premises vs in-region VM", evalFlags, false,
		func(ctx context.Context, w io.Writer, o *options, _ string) error {
			warehouses, err := parseInts(o.warehouses)
			if err != nil {
				return err
			}
			rows, err := experiments.Figure7(ctx, warehouses, o.workload)
			if err == nil {
				experiments.FprintFigure7(w, rows)
			}
			return err
		}},
	{"ablations", "aggregation / uploader-pool / dump-threshold ablations", nil, false,
		func(ctx context.Context, w io.Writer, _ *options, _ string) error {
			return experiments.FprintAblations(ctx, w)
		}},
}

// tools are the subcommands that are not one table: `all` skips them.
var tools = []subcommand{
	{"all", "every table and figure above", evalFlags, false, runAll},
	{"custom", "price an arbitrary deployment (see -h)", customFlags, false, runCustom},
	{"json", "benchmark one cloud path in virtual time, gate it, write BENCH_<path>.json (see -h)", jsonFlags, false, runJSON},
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	o := &options{budget: 1.0, deployment: costmodel.PaperEvaluationDeployment()}
	o.engines, _ = enginesOf("both")
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	for _, c := range append(tables, tools...) {
		if c.name != args[0] {
			continue
		}
		if c.flags != nil {
			c.flags(fs, o)
		}
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		return c.print(context.Background(), os.Stdout, o)
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

// print runs c: once, or for a perEngine subcommand once for each engine
// -engine selects, blank-line separated.
func (c subcommand) print(ctx context.Context, w io.Writer, o *options) error {
	engines := []string{""}
	if c.perEngine {
		engines = o.engines
	}
	for i, e := range engines {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := c.run(ctx, w, o, e); err != nil {
			return err
		}
	}
	return nil
}

// runAll prints every table, blank-line separated.
func runAll(ctx context.Context, w io.Writer, o *options, _ string) error {
	for i, c := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := c.print(ctx, w, o); err != nil {
			return err
		}
	}
	return nil
}

func enginesOf(flagValue string) ([]string, error) {
	switch flagValue {
	case "both":
		return []string{"postgresql", "mysql"}, nil
	case "postgresql", "mysql":
		return []string{flagValue}, nil
	default:
		return nil, fmt.Errorf("unknown engine %q (want postgresql, mysql or both)", flagValue)
	}
}

// runCustom prices the deployment the custom flags describe.
func runCustom(_ context.Context, w io.Writer, o *options, _ string) error {
	prices := cloud.AmazonS3May2017()
	fmt.Fprintln(w, costmodel.Monthly(o.deployment, prices))
	fmt.Fprintf(w, "recovery to on-premises: $%.3f (free to an in-region VM)\n",
		costmodel.RecoveryCost(o.deployment, prices, false))
	return nil
}

// benchResult is what every json path produces: a summary for the
// terminal, the gates `make verify` enforces, and (marshalled) the
// content of its BENCH file.
type benchResult interface {
	Fprint(io.Writer)
	Check() error
}

// jsonPaths maps -path to its BENCH file and the benchmark behind it.
// -smoke selects a smaller scenario, used by `make verify` as a cheap
// end-to-end check.
var jsonPaths = map[string]struct {
	file string
	run  func(o *options) (benchResult, error)
}{
	"datapath": {"BENCH_datapath.json", func(o *options) (benchResult, error) {
		opts := experiments.DatapathOptions{Parallel: o.parallel}
		if o.smoke {
			opts.Rows = 60
			opts.MaxObjectSize = 8 << 10
		}
		return experiments.RunDatapath(opts)
	}},
	"commit": {"BENCH_commitpath.json", func(o *options) (benchResult, error) {
		opts := experiments.CommitpathOptions{}
		if o.smoke {
			opts.Commits = 150
			opts.AdaptiveCommits = 896    // 7 batches of 128, 28 of 32, 112 of 8
			opts.ThroughputCommits = 8192 // shorter runs don't outlive controller convergence
		}
		return experiments.RunCommitpath(opts)
	}},
	"recovery": {"BENCH_recovery.json", func(o *options) (benchResult, error) {
		opts := experiments.RecoveryBenchOptions{}
		if o.smoke {
			opts.Seeds = 3
		}
		return experiments.RunRecoveryBench(opts)
	}},
	"fleet": {"BENCH_fleet.json", func(o *options) (benchResult, error) {
		opts := experiments.FleetBenchOptions{}
		if o.smoke {
			opts.Sizes = []int{1, 10, 100}
			opts.Commits = 12
		}
		return experiments.RunFleetBench(opts)
	}},
}

// runJSON benchmarks one path, prints its summary, enforces its gates and
// writes the result as JSON (to stdout under -smoke).
func runJSON(_ context.Context, w io.Writer, o *options, _ string) error {
	path, ok := jsonPaths[o.path]
	if !ok {
		return fmt.Errorf("unknown -path %q (want datapath, commit, recovery or fleet)", o.path)
	}
	res, err := path.run(o)
	if err != nil {
		return err
	}
	res.Fprint(w)
	if err := res.Check(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.smoke {
		_, err := w.Write(data)
		return err
	}
	if o.out == "" {
		o.out = path.file
	}
	if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", o.out)
	return nil
}

// printTable1 demonstrates the event detection of paper Table 1 on
// representative writes for both processors.
func printTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — how Ginja detects the three DBMS events")
	type probe struct {
		path string
		off  int64
	}
	cases := []struct {
		engine string
		proc   dbevent.Processor
		probes []probe
	}{
		{"postgresql", dbevent.NewPGProcessor(), []probe{
			{"pg_xlog/000000010000000000000001", 0},
			{"pg_clog/0000", 0},
			{"base/16384/accounts", 8192},
			{"global/pg_control", 0},
		}},
		{"mysql", dbevent.NewInnoProcessor(), []probe{
			{"ib_logfile0", 2048},
			{"accounts.ibd", 0},
			{"ibdata1", 16384},
			{"ib_logfile0", 512},
		}},
	}
	for _, c := range cases {
		fmt.Fprintf(w, "%s:\n", c.engine)
		for _, p := range c.probes {
			ev := c.proc.Classify(p.path, p.off, nil)
			fmt.Fprintf(w, "  write(%s, offset=%d) → %s\n", p.path, p.off, ev.Type)
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad warehouse list %q: %w", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ginja-bench <subcommand> [flags]\n\nsubcommands:")
	for _, c := range append(tables, tools...) {
		fmt.Fprintf(os.Stderr, "  %-15s %s\n", c.name, c.help)
	}
}
