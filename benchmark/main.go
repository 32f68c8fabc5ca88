// Command benchmark is the wall-clock benchmark of this repository: it runs
// the real Ginja stack on the real clock — never simclock.SimClock, cloudsim
// or vfs.MemFS — from one process, on one of four workloads, and prints the
// end-to-end metrics (tracing off) or the per-layer metrics (tracing on)
// named in BENCHMARK.json. See README.md beside this file.
//
//	go run . -workload wal_stream -seed 1 -seconds 10 -trace 0
//	go run . -compare out/a.jsonl out/b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

type workloadDef struct {
	Name string
	Why  string
	run  func(*bench) error
}

var workloads = []workloadDef{
	{"wal_stream", "throughput-bound commit path with no DBMS in the way: intercept, classify, queue, aggregate/pack and seal do all the work", runPG},
	{"sync_commit", "latency-bound use of the same commit layers (S=B=1, plain sealer, s3http over loopback): every hop is on the blocking path", runPG},
	{"bulk_cycle", "the bulk data path in both directions: checkpoint cycles heavy enough to force re-dumps, then LIST/GET/open/decode/apply", runPG},
	{"tpcc_protected", "paper Fig. 5: TPC-C on minidb bare vs under Ginja in alternating slices, then recovery through the engine's crash recovery", runTPCC},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// environment is recorded in every result so numbers are never read without
// the machine they came from.
type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	Backing    string `json:"local_fs_backing"` // always ram: ramFS, no fsync on either side
}

func readEnvironment() environment {
	env := environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Backing: "ram",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Revision += "+dirty"
				}
			}
		}
	}
	return env
}

// outcome is the object the benchmark contract wants as the last line of
// standard output, with exactly these keys.
type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result is what one run leaves behind: the contract line on stdout is its
// first four fields, the rest goes to the result file.
type result struct {
	outcome

	Workload string             `json:"workload"`
	Mode     string             `json:"mode"` // end_to_end or per_layer
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Scale    float64            `json:"scale"`
	Env      environment        `json:"environment"`
	Phases   map[string]float64 `json:"phase_wall_s"`
	Counts   map[string]int64   `json:"counts"`
	Digest   string             `json:"op_stream_digest"`
	Commit   []layerShare       `json:"median_commit_self_ns,omitempty"`
	CommitNs int64              `json:"median_commit_ns,omitempty"`
}

// defaultOutDir is out/ beside this source file when the binary runs where
// it was built (the normal `go run` case), else out/ under the current
// directory.
func defaultOutDir() string {
	if _, file, _, ok := runtime.Caller(0); ok {
		if dir := filepath.Dir(file); dirExists(dir) {
			return filepath.Join(dir, "out")
		}
	}
	return "out"
}

func dirExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{Scale: 1}
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "one of wal_stream, sync_commit, bulk_cycle, tpcc_protected")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed of the input generator")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "length of the measured rounds; fixed work is sized from it")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.OutDir, "out", defaultOutDir(), "directory for result_*.json, runs.jsonl and trace_*.json")
	compare := fs.Bool("compare", false, "compare two result files (JSON lines): -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	cfg.Trace = trace != 0
	if findWorkload(cfg.Workload) == nil || cfg.Seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: need -workload (wal_stream, sync_commit, bulk_cycle, tpcc_protected) and -seconds > 0")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg, nil)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printTable(stdout, res)
	line, err := json.Marshal(res.outcome)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one workload once and returns its result; the result and
// trace files are written as a side effect. beforeCheck, when set, runs
// just before the recovery check (the test file corrupts the bucket there).
func run(ctx context.Context, cfg config, beforeCheck func(*stack)) (*result, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		cfg: cfg, ctx: ctx, gen: newGen(cfg.Seed),
		vals: values{}, phases: map[string]float64{}, counts: map[string]int64{},
		beforeCheck: beforeCheck,
	}
	mode, defs := "end_to_end", endToEnd
	if cfg.Trace {
		mode, defs = "per_layer", perLayer
		b.tr = newTracer(cfg.Workload == "sync_commit")
	}
	t0 := time.Now()
	runErr := findWorkload(cfg.Workload).run(b)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if runErr != nil {
		b.fail(1, "%v", runErr)
	}
	b.phases["total"] = time.Since(t0).Seconds()

	if cfg.Trace {
		b.vals["harness.generator_ns_per_op"] = generatorCost(b)
		b.vals["harness.failed_share"] = float64(b.failed) / float64(max(b.attempted, 1))
		spans := b.tr.finished()
		if cfg.Workload == "sync_commit" {
			b.commitNs, b.commit = medianCommit(spans)
		}
		if err := writeTrace(filepath.Join(cfg.OutDir, "trace_"+cfg.Workload+".json"), spans, b.tr.dropped); err != nil {
			return nil, err
		}
		b.counts["spans"] = int64(len(spans))
	}
	res := &result{
		outcome:  outcome{Correct: b.failed == 0, Attempted: max(b.attempted, 1), Failed: b.failed},
		Workload: cfg.Workload, Mode: mode, Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale,
		Env: readEnvironment(), Phases: b.phases, Counts: b.counts, Digest: b.digest,
		Commit: b.commit, CommitNs: b.commitNs,
	}
	// A run that failed part-way has no complete metric set to export.
	var err error
	if res.Metrics, err = b.vals.export(defs, !cfg.Trace && runErr == nil); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	if err := writeResult(cfg.OutDir, res); err != nil {
		return nil, err
	}
	return res, nil
}

// generatorCost times the input generator alone, no file system under it.
func generatorCost(b *bench) float64 {
	g := b.gen.fork(b.cfg.Seed + 1)
	var page [walPage]byte
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		copy(page[:], g.bytes(300+g.rng.Intn(1201)))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// writeResult writes the pretty result file of this workload and mode and
// appends the same result as one line to runs.jsonl, the input of -compare.
func writeResult(dir string, res *result) error {
	pretty, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result_%s_%s.json", res.Workload, res.Mode)
	if err := os.WriteFile(filepath.Join(dir, name), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints every metric of the run by name and unit, then the
// bookkeeping a reader needs to trust it.
func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  mode %s  seed %d  seconds %g  scale %g\n", res.Workload, res.Mode, res.Seed, res.Seconds, res.Scale)
	fmt.Fprintf(w, "%s/%s  nproc %d  GOMAXPROCS %d  %s  rev %s  local fs %s\n",
		res.Env.GOOS, res.Env.GOARCH, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Revision, res.Env.Backing)
	defs := endToEnd
	if res.Mode == "per_layer" {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-40s %16.4f %-10s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
	}
	if len(res.Commit) > 0 {
		fmt.Fprintf(w, "median traced commit: client.write = %d ns, self time per layer:\n", res.CommitNs)
		var sum int64
		for _, s := range res.Commit {
			fmt.Fprintf(w, "  %-62s %8d ns\n", s.Layer, s.SelfNs)
			sum += s.SelfNs
		}
		fmt.Fprintf(w, "  %-62s %8d ns\n", "sum", sum)
	}
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  count %-34s %d\n", k, res.Counts[k])
	}
	keys = keys[:0]
	for k := range res.Phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  phase %-34s %.3f s\n", k, res.Phases[k])
	}
	fmt.Fprintf(w, "  op-stream digest %s  attempted %d  failed %d\n", res.Digest, res.Attempted, res.Failed)
}
