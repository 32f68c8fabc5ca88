package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testConfig is the benchmark at 1/200 of its work: a 0.4 s run at 1/8 of
// the tree sizes and op rates (Scale has no flag; only this file sets it).
// Real clock, no sleeps.
func testConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{Workload: workload, Seed: seed, Seconds: 0.4, Scale: 0.125, Trace: trace, OutDir: t.TempDir()}
}

// TestWorkloadsReportEveryMetric runs all four workloads in both modes and
// checks that every metric of the catalogue comes back finite with its unit,
// that the correctness checks pass, that a traced run leaves its trace, and
// that the same seed gives the same op stream.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			digests := map[bool]string{}
			for _, trace := range []bool{false, true} {
				cfg := testConfig(t, w.Name, 1, trace)
				res, err := run(context.Background(), cfg, nil)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics reported, catalogue has %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					}
				}
				if res.Env.NumCPU < 1 || res.Env.GoVersion == "" || res.Env.Backing == "" {
					t.Errorf("environment not recorded: %+v", res.Env)
				}
				if res.Counts["latency_samples"] < 1 || res.Phases["measured_rounds"] <= 0 {
					t.Errorf("counts %v / phases %v not recorded", res.Counts, res.Phases)
				}
				digests[trace] = res.Digest
				if !trace {
					continue
				}
				if res.Metrics["harness.tracing_overhead_ratio"].Value <= 0 {
					t.Error("harness.tracing_overhead_ratio not reported")
				}
				raw, err := os.ReadFile(filepath.Join(cfg.OutDir, "trace_"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct{ Spans []span }
				if err := json.Unmarshal(raw, &tr); err != nil || len(tr.Spans) == 0 {
					t.Fatalf("trace file: %v, %d spans", err, len(tr.Spans))
				}
				names := map[string]bool{}
				for _, s := range tr.Spans {
					names[s.Name] = true
					if s.EndNs < s.StartNs {
						t.Fatalf("span %+v ends before it starts", s)
					}
				}
				for _, want := range []string{"client.write", "vfs.local_write", "core.on_write", "dbevent.classify", "cloud.put", "core.boot", "core.recover"} {
					if !names[want] {
						t.Errorf("trace has no %s span", want)
					}
				}
				if w.Name == "sync_commit" {
					if !names["s3http.server"] {
						t.Error("trace has no s3http.server span")
					}
					var sum int64
					for _, s := range res.Commit {
						sum += s.SelfNs
					}
					if res.CommitNs <= 0 || sum != res.CommitNs {
						t.Errorf("median commit: layer self times add to %d ns, client.write is %d ns", sum, res.CommitNs)
					}
				}
			}
			if digests[false] == "" || digests[false] != digests[true] {
				t.Errorf("same seed, different op streams: %q vs %q", digests[false], digests[true])
			}
		})
	}
}

// TestSeedChangesOpStream: a different seed must give different inputs.
func TestSeedChangesOpStream(t *testing.T) {
	for _, name := range []string{"wal_stream", "sync_commit", "bulk_cycle"} {
		s := pgSpecFor(name)
		a, b, c := pgDigest(newGen(1), 1, s), pgDigest(newGen(1), 1, s), pgDigest(newGen(2), 2, s)
		if a == "" || a != b || a == c {
			t.Errorf("%s: digests seed1=%s seed1=%s seed2=%s", name, a, b, c)
		}
	}
	digest := func(seed int64) string {
		b := &bench{cfg: testConfig(t, "tpcc_protected", seed, false)}
		d, _, err := loadTPCC(newRAMFS(), tpccConfig(b))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b, c := digest(1), digest(1), digest(2); a != b || a == c {
		t.Errorf("tpcc_protected: digests seed1=%s seed1=%s seed2=%s", a, b, c)
	}
}

// TestCorruptedBucketFailsTheRun flips one byte of a bucket object before the
// recovery check: the run must count a failure and report itself incorrect
// (realMain turns that into a non-zero exit).
func TestCorruptedBucketFailsTheRun(t *testing.T) {
	corrupt := func(st *stack) {
		ctx := context.Background()
		infos, err := st.mem.List(ctx, "DB/")
		if err != nil || len(infos) == 0 {
			t.Fatalf("no DB object to corrupt: %v", err)
		}
		data, err := st.mem.Get(ctx, infos[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := st.mem.Put(ctx, infos[0].Name, data); err != nil {
			t.Fatal(err)
		}
	}
	res, err := run(context.Background(), testConfig(t, "wal_stream", 1, false), corrupt)
	if err == nil && (res.Correct || res.Failed == 0) {
		t.Fatalf("corrupted bucket went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exits 0")
	}
}

// TestManifest checks that BENCHMARK.json lists exactly the program's
// workloads and metrics, and that both keep to the limits the benchmark
// contract sets on that file.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var onDisk struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(onDisk.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := onDisk.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s / %s", i, got, w.Name, w.Why)
		}
	}
	sameMetrics := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the catalogue %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, d)
			}
		}
	}
	sameMetrics("end_to_end", onDisk.EndToEnd, endToEnd, true)
	sameMetrics("per_layer", onDisk.PerLayer, perLayer, false)
	if len(onDisk.Paths) != 1 || onDisk.Paths[0] != "benchmark" || onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", onDisk.Paths, onDisk.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) missing")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("per-layer metric %+v breaks the contract", d)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}

// TestCompare pins the quartile rule to Python's statistics.quantiles and the
// three verdicts to the bound.
func TestCompare(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "y", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{higher, steady, []float64{95, 96, 95, 96, 95}, "pass"},
		{higher, steady, []float64{85, 86, 85, 86, 85}, "regressed"},
		{lower, steady, []float64{115, 116, 115, 114, 115}, "regressed"},
		{lower, steady, []float64{85, 86, 85, 86, 85}, "pass"},
		{higher, steady, []float64{60, 120, 85, 140, 70}, "unresolved"},
		{higher, []float64{60, 120, 85, 90, 70}, []float64{150, 160, 170, 180, 155}, "pass"},
	}
	for i, c := range cases {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.want)
		}
	}
}
