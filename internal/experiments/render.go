package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/costmodel"
)

// FprintFigure1 renders the $1/month capacity frontier (Figure 1).
func FprintFigure1(w io.Writer, budget float64) {
	prices := cloud.AmazonS3May2017()
	fmt.Fprintf(w, "Figure 1 — database size vs cloud synchronizations/hour with a $%.2f/month budget (S3 May-2017 prices)\n", budget)
	fmt.Fprintf(w, "%-22s %s\n", "syncs/hour", "max DB size (GB)")
	for _, s := range []float64{10, 25, 50, 75, 100, 120, 150, 200, 240, 250} {
		gb := costmodel.OneDollarMaxDBSizeGB(budget, s, prices)
		fmt.Fprintf(w, "%-22.0f %.1f\n", s, gb)
	}
	fmt.Fprintln(w, "Paper setups: A ≈ 35 GB @ 50/h, B ≈ 20 GB @ 120/h, C ≈ 4.3 GB @ 240/h")
}

// FprintFigure2 renders the Batch/Safety demonstration.
func FprintFigure2(w io.Writer, res Figure2Result) {
	fmt.Fprintf(w, "Figure 2 — B=%d, S=%d: %d updates, %d cloud synchronizations (virtual time)\n",
		res.B, res.S, len(res.PerUpdateBlocked), res.Batches)
	for i, d := range res.PerUpdateBlocked {
		marker := ""
		if d > 0 {
			marker = "  ← DBMS blocked (Safety limit reached)"
		}
		fmt.Fprintf(w, "U%-3d blocked %10s%s\n", i+1, d, marker)
	}
}

// FprintFigure4 renders the cost-vs-workload curves (Figure 4).
func FprintFigure4(w io.Writer) {
	prices := cloud.AmazonS3May2017()
	fmt.Fprintln(w, "Figure 4 — monthly cost vs workload, 10 GB database, S3 (log-log in the paper)")
	fmt.Fprintf(w, "%-18s %-12s %-12s %-12s\n", "updates/minute", "B=10", "B=100", "B=1000")
	for _, wl := range []float64{10, 30, 100, 300, 1000} {
		fmt.Fprintf(w, "%-18.0f", wl)
		for _, b := range []float64{10, 100, 1000} {
			d := costmodel.PaperEvaluationDeployment()
			d.UpdatesPerMinute = wl
			d.Batch = b
			fmt.Fprintf(w, " $%-11.3f", costmodel.Monthly(d, prices).Total())
		}
		fmt.Fprintln(w)
	}
}

// FprintTable2 renders the real-application cost comparison (Table 2).
func FprintTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2 — cloud DR cost: Ginja (S3) vs database replica VMs (EC2), $/month")
	fmt.Fprintf(w, "%-14s %-12s %-12s %-14s %s\n", "configuration", "syncs/min", "Ginja", "EC2 VM", "savings")
	for _, row := range costmodel.Table2(cloud.AmazonS3May2017()) {
		fmt.Fprintf(w, "%-14s %-12.0f $%-11.2f $%-13.1f %.0f×\n",
			row.Scenario, row.SyncsMin, row.Ginja, row.VM, row.Savings)
	}
}

// FprintRecoveryCosts renders §7.3's recovery-cost estimates.
func FprintRecoveryCosts(w io.Writer) {
	prices := cloud.AmazonS3May2017()
	fmt.Fprintln(w, "§7.3 — cost of recovery (download of all DB and WAL objects)")
	for _, s := range []costmodel.Scenario{costmodel.Laboratory(1), costmodel.Hospital(1)} {
		out := costmodel.RecoveryCost(s.Deployment(), prices, false)
		fmt.Fprintf(w, "%-14s to on-premises: $%.3f   to in-region VM: $%.3f\n",
			s.Name, out, costmodel.RecoveryCost(s.Deployment(), prices, true))
	}
}

// fprintCeilings renders a throughput grid: each cell's WAN-bound
// ceiling and the virtual time its transactions spent blocked.
func fprintCeilings(w io.Writer, title string, rows []TPCCResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-22s %-16s %s\n", "configuration", "tx/virtual s", "blocked")
	for _, r := range rows {
		ceiling := "never blocked"
		if tps := r.TxPerSec(); tps > 0 {
			ceiling = fmt.Sprintf("%.1f", tps)
		}
		fmt.Fprintf(w, "%-22s %-16s %s\n", r.Cell.Label, ceiling, r.Blocked.Round(time.Millisecond))
	}
}

// FprintFigure5 renders one engine's B×S grid.
func FprintFigure5(w io.Writer, engine string, rows []TPCCResult) {
	fprintCeilings(w, fmt.Sprintf("Figure 5 (%s) — WAN-bound TPC-C ceiling, %d transactions per cell (virtual time)",
		engine, transactionsOf(rows)), rows)
}

// FprintFigure6 renders one engine's compression/encryption grid.
func FprintFigure6(w io.Writer, engine string, rows []TPCCResult) {
	fprintCeilings(w, fmt.Sprintf("Figure 6 (%s) — compression & encryption on the WAN-bound ceiling, %d transactions per cell (virtual time)",
		engine, transactionsOf(rows)), rows)
}

func transactionsOf(rows []TPCCResult) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Transactions
}

// FprintTable3 renders the cloud-usage table.
func FprintTable3(w io.Writer, engine string, rows []TPCCResult) {
	fmt.Fprintf(w, "Table 3 (%s) — storage-cloud usage over %d transactions (virtual time)\n", engine, transactionsOf(rows))
	fmt.Fprintf(w, "%-22s %-16s %-18s %s\n", "configuration", "PUTs per 1000 tx", "object size (kB)", "PUT latency (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-16.1f %-18.1f %.1f\n", r.Cell.Label, r.PutsPerKTx(), r.MeanObjectBytes()/1000,
			float64(r.PutLatency)/float64(time.Millisecond))
	}
}

// FprintFigure7 renders the recovery-time series.
func FprintFigure7(w io.Writer, rows []Figure7Row) {
	fmt.Fprintln(w, "Figure 7 — recovery time by database size (Recover's virtual duration)")
	fmt.Fprintf(w, "%-14s %-18s %-18s %-14s %s\n",
		"warehouses", "on-premises", "EC2 in-region", "bytes", "objects")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %-18s %-18s %-14d %d\n",
			r.Warehouses, r.OnPremises.Round(time.Millisecond),
			r.InRegionVM.Round(time.Millisecond), r.Bytes, r.Objects)
	}
}
