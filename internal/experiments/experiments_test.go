package experiments

import (
	"bytes"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
)

// testTx keeps the TPC-C cells small; on the virtual clock every figure
// is exact at any count.
const testTx = 300

func TestRunTPCCGinjaUploads(t *testing.T) {
	res, err := RunTPCC("postgresql", Cell{B: 10, S: 1000}, testTx)
	if err != nil {
		t.Fatal(err)
	}
	if res.WALObjects == 0 {
		t.Fatal("no WAL objects uploaded")
	}
	if res.MeanObjectBytes() <= 0 {
		t.Fatal("no object size recorded")
	}
	if res.PutLatency < cloudsim.WANProfile().BaseLatency*9/10 {
		t.Fatalf("mean PUT latency %v below the WAN round trip", res.PutLatency)
	}
}

func TestFigure5ShapeHighBSBeatsNoLoss(t *testing.T) {
	// The central Figure 5 claim: a generous B/S configuration never makes
	// the DBMS wait on the WAN, while No-Loss (S=B=1) waits on every
	// commit.
	generous, err := RunTPCC("postgresql", Cell{B: 100, S: 10000}, testTx)
	if err != nil {
		t.Fatal(err)
	}
	noLoss, err := RunTPCC("postgresql", Cell{B: 1, S: 1}, testTx)
	if err != nil {
		t.Fatal(err)
	}
	if generous.Blocked != 0 {
		t.Fatalf("B=100 S=10000 blocked %v, want never", generous.Blocked)
	}
	if want := 66107060799 * time.Nanosecond; noLoss.Blocked != want {
		t.Fatalf("No-Loss blocked %v, want exactly %v", noLoss.Blocked, want)
	}
}

func TestTable3ShapeBatchingReducesPuts(t *testing.T) {
	// Table 3's shape: B=10 → many small objects; B=1000 → far fewer,
	// bigger objects with higher per-PUT latency.
	rows, err := RunCells("postgresql", Table3Cells(), testTx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	byConfig := make(map[string]TPCCResult, len(rows))
	for _, r := range rows {
		byConfig[r.Cell.Label] = r
	}
	small := byConfig["10/100 plain"]
	large := byConfig["1000/10000 plain"]
	if small.WALObjects <= large.WALObjects {
		t.Fatalf("PUTs: B=10 (%d) should exceed B=1000 (%d)", small.WALObjects, large.WALObjects)
	}
	if small.MeanObjectBytes() >= large.MeanObjectBytes() {
		t.Fatalf("object size: B=10 (%.0f B) should be below B=1000 (%.0f B)",
			small.MeanObjectBytes(), large.MeanObjectBytes())
	}
	if small.PutLatency >= large.PutLatency {
		t.Fatalf("latency: B=10 (%v) should be below B=1000 (%v)", small.PutLatency, large.PutLatency)
	}
	// Compression shrinks objects (paper: ≈37 % smaller) and so their PUTs.
	plain := byConfig["100/1000 plain"]
	cc := byConfig["100/1000 C+C"]
	if cc.MeanObjectBytes() >= plain.MeanObjectBytes() || cc.PutLatency >= plain.PutLatency {
		t.Fatalf("C+C objects (%.0f B, %v) should be smaller and faster than plain (%.0f B, %v)",
			cc.MeanObjectBytes(), cc.PutLatency, plain.MeanObjectBytes(), plain.PutLatency)
	}
}

func TestFigure7ShapeGrowsWithSizeAndLANFaster(t *testing.T) {
	rows, err := Figure7([]int{1, 3}, testTx)
	if err != nil {
		t.Fatal(err)
	}
	want := []Figure7Row{
		{Warehouses: 1, OnPremises: 1385274239, InRegionVM: 42014123, Bytes: 3813843, Objects: 6},
		{Warehouses: 3, OnPremises: 2070985425, InRegionVM: 77488535, Bytes: 7833349, Objects: 6},
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
	for _, r := range rows {
		if r.InRegionVM >= r.OnPremises {
			t.Fatalf("W=%d: in-region (%v) should beat on-premises (%v)",
				r.Warehouses, r.InRegionVM, r.OnPremises)
		}
	}
	if rows[1].OnPremises <= rows[0].OnPremises {
		t.Fatalf("recovery time should grow with database size: W=1 %v vs W=3 %v",
			rows[0].OnPremises, rows[1].OnPremises)
	}
}

func TestFigure2Blocking(t *testing.T) {
	res, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerUpdateBlocked) != 21 {
		t.Fatalf("%d updates", len(res.PerUpdateBlocked))
	}
	// Updates 1..20 return at once; update 21 waits for the first
	// synchronization: one 120 ms round trip plus its transfer time.
	for i := 0; i < 20; i++ {
		if res.PerUpdateBlocked[i] != 0 {
			t.Fatalf("update %d blocked %v below the Safety limit", i+1, res.PerUpdateBlocked[i])
		}
	}
	if want := 121651900 * time.Nanosecond; res.PerUpdateBlocked[20] != want {
		t.Fatalf("update 21 blocked %v, want exactly %v", res.PerUpdateBlocked[20], want)
	}
	if res.FirstBlockedUpdate != 21 || res.Batches != 11 {
		t.Fatalf("first blocked update %d, batches %d; want 21 and 11", res.FirstBlockedUpdate, res.Batches)
	}
}

func TestRunRecoveryValidatesRestart(t *testing.T) {
	res, err := RunRecovery(1, testTx, cloudsim.LANProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.RTO <= 0 || res.Objects == 0 {
		t.Fatalf("RTO = %v over %d objects", res.RTO, res.Objects)
	}
}

// TestPaperTablesAreDeterministic renders every virtual-clock figure and
// table twice and requires identical bytes: each is a function of its
// inputs alone (make determinism repeats this at GOMAXPROCS 1/2/8).
func TestPaperTablesAreDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		fig2, err := Figure2()
		if err != nil {
			t.Fatal(err)
		}
		FprintFigure2(&buf, fig2)
		for _, e := range []string{"postgresql", "mysql"} {
			cells := []Cell{Figure5Cells()[3], Figure6Cells()[5], Table3Cells()[1]}
			rows, err := RunCells(e, cells, 50)
			if err != nil {
				t.Fatal(err)
			}
			FprintFigure5(&buf, e, rows[:1])
			FprintFigure6(&buf, e, rows[1:2])
			FprintTable3(&buf, e, rows[2:])
		}
		fig7, err := Figure7([]int{1}, 50)
		if err != nil {
			t.Fatal(err)
		}
		FprintFigure7(&buf, fig7)
		if err := FprintAblations(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a, b)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	FprintFigure1(&buf, 1.0)
	FprintFigure4(&buf)
	FprintTable2(&buf)
	FprintRecoveryCosts(&buf)
	rows := []TPCCResult{{Cell: Figure5Cells()[0], Transactions: 10}, {Cell: Figure5Cells()[9], Transactions: 10, Blocked: time.Second}}
	FprintFigure5(&buf, "postgresql", rows)
	FprintFigure6(&buf, "postgresql", rows)
	FprintTable3(&buf, "postgresql", rows)
	FprintFigure7(&buf, []Figure7Row{{Warehouses: 1}})
	FprintFigure2(&buf, Figure2Result{B: 2, S: 20, PerUpdateBlocked: make([]time.Duration, 3)})
	if buf.Len() < 500 {
		t.Fatalf("renderers produced only %d bytes", buf.Len())
	}
}

func TestEngineForRejectsUnknown(t *testing.T) {
	if _, err := engineFor("oracle"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := RunTPCC("oracle", Cell{B: 1, S: 1}, 1); err == nil {
		t.Fatal("unknown engine accepted by RunTPCC")
	}
}

func TestMySQLCellRuns(t *testing.T) {
	res, err := RunTPCC("mysql", Cell{B: 100, S: 1000}, testTx)
	if err != nil {
		t.Fatal(err)
	}
	if res.WALObjects == 0 {
		t.Fatalf("mysql cell: %+v", res)
	}
}

func TestAblationAggregation(t *testing.T) {
	res, err := RunAblationAggregation(500)
	if err != nil {
		t.Fatal(err)
	}
	if res.PutsNaive != 500 {
		t.Fatalf("naive PUTs = %d, want one per write", res.PutsNaive)
	}
	if res.SavingsX < 10 {
		t.Fatalf("aggregation savings = %.1f×, want ≫ 1", res.SavingsX)
	}
	if res.BytesAggregated >= res.BytesNaive {
		t.Fatalf("aggregation did not reduce bytes: %d vs %d", res.BytesAggregated, res.BytesNaive)
	}
}

func TestAblationUploadersParallelismHelps(t *testing.T) {
	rows, err := RunAblationUploaders([]int{1, 8}, 80)
	if err != nil {
		t.Fatal(err)
	}
	want := []AblationUploadersRow{{1, 32303632697}, {8, 4156437727}}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestAblationObjectSplit(t *testing.T) {
	rows, err := RunAblationObjectSplit([]int64{1, 20})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Objects != 8 || rows[1].Objects != 1 {
		t.Fatalf("objects for an 8 MiB run: cap 1 MB %d, cap 20 MB %d; want 8 and 1", rows[0].Objects, rows[1].Objects)
	}
}

func TestAblationDumpThresholdTradeoff(t *testing.T) {
	rows, err := RunAblationDumpThreshold([]float64{1.2, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	eager, lazy := rows[0], rows[1]
	if eager.Dumps <= lazy.Dumps {
		t.Fatalf("threshold 1.2 should dump more often than 3.0 (%d vs %d)", eager.Dumps, lazy.Dumps)
	}
}

func TestFprintAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := FprintAblations(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 200 {
		t.Fatalf("ablation output only %d bytes", buf.Len())
	}
}
