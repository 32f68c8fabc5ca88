// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each is a thin wrapper over the experiment `ginja-bench`
// prints, run once per iteration, so they are best invoked with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Custom metrics carry the experimental results (tx per virtual second,
// PUTs, ms, ...); ns/op is just the harness cost. The measured figures run
// in virtual time on the simulated WAN, so they are exact and the same on
// every machine. The CPU side of the evaluation is the wall-clock
// benchmark's (benchmark/).
package ginja_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/costmodel"
	"github.com/ginja-dr/ginja/internal/experiments"
)

// --- Cost model (Figures 1 and 4, Table 2, §7.3) -----------------------

// BenchmarkFigure1OneDollarFrontier regenerates the $1/month capacity
// frontier (paper Figure 1) and reports the three named setups.
func BenchmarkFigure1OneDollarFrontier(b *testing.B) {
	prices := cloud.AmazonS3May2017()
	var a50, b120, c240 float64
	for i := 0; i < b.N; i++ {
		points := costmodel.OneDollarFrontier(1.0, 250, prices)
		a50 = points[49].MaxDBSizeGB
		b120 = points[119].MaxDBSizeGB
		c240 = points[239].MaxDBSizeGB
	}
	b.ReportMetric(a50, "GB@50/h")
	b.ReportMetric(b120, "GB@120/h")
	b.ReportMetric(c240, "GB@240/h")
}

// BenchmarkFigure4CostVsWorkload regenerates the cost-vs-workload curves.
func BenchmarkFigure4CostVsWorkload(b *testing.B) {
	prices := cloud.AmazonS3May2017()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		for _, w := range []float64{10, 100, 1000} {
			for _, batch := range []float64{10, 100, 1000} {
				d := costmodel.PaperEvaluationDeployment()
				d.UpdatesPerMinute = w
				d.Batch = batch
				total := costmodel.Monthly(d, prices).Total()
				if w == 10 && batch == 1000 {
					lo = total
				}
				if w == 1000 && batch == 10 {
					hi = total
				}
			}
		}
	}
	b.ReportMetric(lo, "$low")
	b.ReportMetric(hi, "$high")
}

// BenchmarkTable2RealApplications regenerates the Laboratory/Hospital
// comparison of Table 2.
func BenchmarkTable2RealApplications(b *testing.B) {
	prices := cloud.AmazonS3May2017()
	var rows []costmodel.Table2Row
	for i := 0; i < b.N; i++ {
		rows = costmodel.Table2(prices)
	}
	b.ReportMetric(rows[0].Ginja, "$lab1m")
	b.ReportMetric(rows[1].Ginja, "$lab6m")
	b.ReportMetric(rows[2].Ginja, "$hosp1m")
	b.ReportMetric(rows[2].Savings, "hosp-savings-x")
}

// BenchmarkRecoveryCostModel regenerates §7.3's recovery costs.
func BenchmarkRecoveryCostModel(b *testing.B) {
	prices := cloud.AmazonS3May2017()
	var lab, hosp float64
	for i := 0; i < b.N; i++ {
		lab = costmodel.RecoveryCost(costmodel.Laboratory(1).Deployment(), prices, false)
		hosp = costmodel.RecoveryCost(costmodel.Hospital(1).Deployment(), prices, false)
	}
	b.ReportMetric(lab, "$lab")
	b.ReportMetric(hosp, "$hospital")
}

// --- Semantics (Figure 2) ----------------------------------------------

// BenchmarkFigure2BatchSafetySemantics runs the B=2/S=20 demonstration:
// which update first blocked (21 when correct) and for how long.
func BenchmarkFigure2BatchSafetySemantics(b *testing.B) {
	var res experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FirstBlockedUpdate), "first-blocked-update")
	b.ReportMetric(res.PerUpdateBlocked[len(res.PerUpdateBlocked)-1].Seconds()*1000, "ms-blocked-U21")
}

// --- WAN-bound throughput (Figures 5 and 6) -----------------------------

// metricLabel makes a configuration label legal as a benchmark unit
// (no whitespace allowed).
func metricLabel(label string) string {
	return strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(label)
}

// runCells runs one grid at the paper's transaction count.
func runCells(b *testing.B, engine string, cells []experiments.Cell) []experiments.TPCCResult {
	var rows []experiments.TPCCResult
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.RunCells(engine, cells, experiments.PaperTransactions); err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

// benchCeilings reports each cell's ceiling in transactions per virtual
// second (0: never blocked).
func benchCeilings(b *testing.B, engine string, cells []experiments.Cell) {
	for _, r := range runCells(b, engine, cells) {
		b.ReportMetric(r.TxPerSec(), "tx/vs:"+metricLabel(r.Cell.Label))
	}
}

// BenchmarkFigure5ThroughputPostgreSQL regenerates Figure 5a.
func BenchmarkFigure5ThroughputPostgreSQL(b *testing.B) {
	benchCeilings(b, "postgresql", experiments.Figure5Cells())
}

// BenchmarkFigure5ThroughputMySQL regenerates Figure 5b.
func BenchmarkFigure5ThroughputMySQL(b *testing.B) {
	benchCeilings(b, "mysql", experiments.Figure5Cells())
}

// BenchmarkFigure6SealerThroughputPostgreSQL regenerates Figure 6a.
func BenchmarkFigure6SealerThroughputPostgreSQL(b *testing.B) {
	benchCeilings(b, "postgresql", experiments.Figure6Cells())
}

// BenchmarkFigure6SealerThroughputMySQL regenerates Figure 6b.
func BenchmarkFigure6SealerThroughputMySQL(b *testing.B) {
	benchCeilings(b, "mysql", experiments.Figure6Cells())
}

// --- Cloud usage (Table 3) ------------------------------------------------

// BenchmarkTable3CloudUsage regenerates Table 3 (PostgreSQL side).
func BenchmarkTable3CloudUsage(b *testing.B) {
	for _, r := range runCells(b, "postgresql", experiments.Table3Cells()) {
		b.ReportMetric(r.PutsPerKTx(), "puts/ktx:"+metricLabel(r.Cell.Label))
		b.ReportMetric(r.MeanObjectBytes()/1000, "kB:"+metricLabel(r.Cell.Label))
		b.ReportMetric(r.PutLatency.Seconds()*1000, "ms:"+metricLabel(r.Cell.Label))
	}
}

// --- Recovery time (Figure 7) -------------------------------------------

// BenchmarkFigure7RecoveryTime regenerates the recovery-time series at
// reduced scale (W ∈ {1, 3}).
func BenchmarkFigure7RecoveryTime(b *testing.B) {
	var rows []experiments.Figure7Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.Figure7([]int{1, 3}, experiments.PaperTransactions); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.OnPremises.Seconds(), fmt.Sprintf("s-onprem-W%d", r.Warehouses))
		b.ReportMetric(r.InRegionVM.Seconds(), fmt.Sprintf("s-inregion-W%d", r.Warehouses))
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblationAggregation quantifies what write aggregation saves:
// the same page-rewrite workload with coalescing on vs off.
func BenchmarkAblationAggregation(b *testing.B) {
	var res experiments.AblationAggregation
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunAblationAggregation(2000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PutsAggregated), "puts-aggregated")
	b.ReportMetric(float64(res.PutsNaive), "puts-naive")
	b.ReportMetric(res.SavingsX, "savings-x")
}

// BenchmarkAblationUploaders sweeps the uploader-pool size (the paper
// found 5 best in its environment): virtual time to drain a burst of
// uploads through the WAN profile.
func BenchmarkAblationUploaders(b *testing.B) {
	var rows []experiments.AblationUploadersRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.RunAblationUploaders([]int{1, 5, 16}, 200); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Drain.Seconds()*1000, fmt.Sprintf("ms-drain:uploaders=%d", r.Uploaders))
	}
}

// BenchmarkAblationObjectSplit sweeps the object-size cap for a large
// contiguous upload (the 20 MB split of §5.2).
func BenchmarkAblationObjectSplit(b *testing.B) {
	var rows []experiments.AblationObjectSplitRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.RunAblationObjectSplit([]int64{1, 20, 1024}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Objects), fmt.Sprintf("objects:cap=%dMB", r.CapMB))
	}
}

// BenchmarkAblationDumpThreshold sweeps the dump trigger (150 % in the
// paper): lower thresholds dump more often (more upload bytes, less cloud
// storage held); higher thresholds accumulate incremental checkpoints.
func BenchmarkAblationDumpThreshold(b *testing.B) {
	var rows []experiments.AblationDumpThresholdRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = experiments.RunAblationDumpThreshold([]float64{1.2, 1.5, 3.0}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		th := fmt.Sprintf("threshold=%.1f", r.Threshold)
		b.ReportMetric(float64(r.BytesHeld)/1024, "kB-held:"+th)
		b.ReportMetric(float64(r.BytesShipped)/1024, "kB-uploaded:"+th)
		b.ReportMetric(float64(r.Dumps), "dumps:"+th)
	}
}
