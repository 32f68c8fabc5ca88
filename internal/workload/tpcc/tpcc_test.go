package tpcc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
	"github.com/ginja-dr/ginja/internal/vfs"
)

func testDB(t *testing.T) *minidb.DB {
	t.Helper()
	db, err := minidb.Open(vfs.NewMemFS(), pgengine.NewWithSizes(1024, 64*1024, 1024), minidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func smallConfig() Config {
	return Config{Warehouses: 1, Districts: 2, Customers: 5, Items: 20, Terminals: 2, Seed: 42}
}

func TestLoadCreatesSchema(t *testing.T) {
	db := testDB(t)
	cfg := smallConfig()
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	tables := db.Tables()
	if len(tables) != len(Tables()) {
		t.Fatalf("tables = %v", tables)
	}
	// Spot-check rows.
	raw, err := db.Get(TableWarehouse, warehouseKey(1))
	if err != nil {
		t.Fatal(err)
	}
	var wh Warehouse
	if err := decode(raw, &wh); err != nil {
		t.Fatal(err)
	}
	if wh.ID != 1 {
		t.Fatalf("warehouse = %+v", wh)
	}
	for d := 1; d <= cfg.Districts; d++ {
		var dist District
		raw, err := db.Get(TableDistrict, districtKey(1, d))
		if err != nil {
			t.Fatal(err)
		}
		if err := decode(raw, &dist); err != nil {
			t.Fatal(err)
		}
		if dist.NextOID != 1 {
			t.Fatalf("district %d NextOID = %d", d, dist.NextOID)
		}
	}
	for i := 1; i <= cfg.Items; i++ {
		if _, err := db.Get(TableStock, stockKey(1, i)); err != nil {
			t.Fatalf("stock %d missing: %v", i, err)
		}
	}
}

func TestNewOrderCreatesRows(t *testing.T) {
	db := testDB(t)
	cfg := smallConfig()
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	term := &terminal{db: db, cfg: cfg.normalized(), rng: rand.New(rand.NewSource(1)), home: home{w: 1, d: 1}}
	if err := term.newOrder(); err != nil {
		t.Fatal(err)
	}
	// District counter advanced.
	var dist District
	raw, err := db.Get(TableDistrict, districtKey(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := decode(raw, &dist); err != nil {
		t.Fatal(err)
	}
	if dist.NextOID != 2 {
		t.Fatalf("NextOID = %d, want 2", dist.NextOID)
	}
	// Order and its lines exist.
	rawOrder, err := db.Get(TableOrders, orderKey(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var order Order
	if err := decode(rawOrder, &order); err != nil {
		t.Fatal(err)
	}
	if order.LineCount < 5 || order.LineCount > 15 {
		t.Fatalf("LineCount = %d", order.LineCount)
	}
	for n := 1; n <= order.LineCount; n++ {
		if _, err := db.Get(TableOrderLine, orderLineKey(1, 1, 1, n)); err != nil {
			t.Fatalf("order line %d missing: %v", n, err)
		}
	}
	if _, err := db.Get(TableNewOrder, newOrderKey(1, 1, 1)); err != nil {
		t.Fatalf("new_order marker missing: %v", err)
	}
}

func TestPaymentMovesMoney(t *testing.T) {
	db := testDB(t)
	cfg := smallConfig()
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	term := &terminal{db: db, cfg: cfg.normalized(), rng: rand.New(rand.NewSource(2)), home: home{w: 1, d: 1}}
	if err := term.payment(); err != nil {
		t.Fatal(err)
	}
	var wh Warehouse
	raw, err := db.Get(TableWarehouse, warehouseKey(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := decode(raw, &wh); err != nil {
		t.Fatal(err)
	}
	if wh.YTD <= 0 {
		t.Fatalf("warehouse YTD = %v after payment", wh.YTD)
	}
	keys, err := db.Keys(TableHistory)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("history rows = %d", len(keys))
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	db := testDB(t)
	cfg := smallConfig()
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	term := &terminal{db: db, cfg: cfg.normalized(), rng: rand.New(rand.NewSource(3)), home: home{w: 1, d: 1}}
	for i := 0; i < 3; i++ {
		if err := term.newOrder(); err != nil {
			t.Fatal(err)
		}
	}
	if err := term.delivery(); err != nil {
		t.Fatal(err)
	}
	// Oldest order delivered; marker gone.
	if _, err := db.Get(TableNewOrder, newOrderKey(1, 1, 1)); err == nil {
		t.Fatal("new_order marker for order 1 still present")
	}
	var order Order
	raw, err := db.Get(TableOrders, orderKey(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := decode(raw, &order); err != nil {
		t.Fatal(err)
	}
	if !order.Delivered || order.Carrier == 0 {
		t.Fatalf("order = %+v, want delivered", order)
	}
	// Empty district: delivery is a no-op, not an error.
	term2 := &terminal{db: db, cfg: cfg.normalized(), rng: rand.New(rand.NewSource(4)), home: home{w: 1, d: 2}}
	if err := term2.delivery(); err != nil {
		t.Fatalf("delivery on empty district: %v", err)
	}
}

func TestReadOnlyTransactions(t *testing.T) {
	db := testDB(t)
	cfg := smallConfig()
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	term := &terminal{db: db, cfg: cfg.normalized(), rng: rand.New(rand.NewSource(5)), home: home{w: 1, d: 1}}
	if err := term.newOrder(); err != nil {
		t.Fatal(err)
	}
	if err := term.orderStatus(); err != nil {
		t.Fatal(err)
	}
	if err := term.stockLevel(); err != nil {
		t.Fatal(err)
	}
	// orderStatus for a customer with no orders must not fail.
	commits := db.Stats().Commits
	for i := 0; i < 10; i++ {
		if err := term.stockLevel(); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().Commits; got != commits {
		t.Fatalf("read-only tx committed: %d → %d", commits, got)
	}
}

// TestRunCountIsSeedOnly: a count-bounded run runs exactly n
// transactions, and the same Config on a fresh database draws the same
// mix and leaves byte-identical rows.
func TestRunCountIsSeedOnly(t *testing.T) {
	run := func() (Result, []minidb.KV) {
		db := testDB(t)
		cfg := smallConfig()
		if err := Load(db, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := NewDriver(db, cfg).RunCount(200)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.Scan(TableCustomer, "")
		if err != nil {
			t.Fatal(err)
		}
		return res, rows
	}
	a, rowsA := run()
	b, rowsB := run()
	var total int64
	for _, v := range a.Counts {
		total += v
	}
	if total+a.Errors != 200 {
		t.Fatalf("ran %d transactions (+%d errors), want 200", total, a.Errors)
	}
	if fmt.Sprint(a.Counts, a.Errors) != fmt.Sprint(b.Counts, b.Errors) {
		t.Fatalf("counts differ between runs: %v vs %v", a.Counts, b.Counts)
	}
	if fmt.Sprint(rowsA) != fmt.Sprint(rowsB) {
		t.Fatal("customer rows differ between runs")
	}
}

func TestDriverRunProducesThroughput(t *testing.T) {
	db := testDB(t)
	cfg := smallConfig()
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	dr := NewDriver(db, cfg)
	res, err := dr.Run(context.Background(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.TpmTotal <= 0 {
		t.Fatalf("TpmTotal = %v", res.TpmTotal)
	}
	if res.TpmC <= 0 {
		t.Fatalf("TpmC = %v", res.TpmC)
	}
	if res.TpmC >= res.TpmTotal {
		t.Fatalf("TpmC (%v) must be below TpmTotal (%v)", res.TpmC, res.TpmTotal)
	}
	if res.Errors > res.Counts[NewOrderTx]/10 {
		t.Fatalf("too many errors: %d (counts %v)", res.Errors, res.Counts)
	}
	// The mix should roughly favour newOrder+payment (88 %).
	var total int64
	for _, v := range res.Counts {
		total += v
	}
	heavy := res.Counts[NewOrderTx] + res.Counts[PaymentTx]
	if float64(heavy) < 0.7*float64(total) {
		t.Fatalf("newOrder+payment = %d of %d, want ≈88%%", heavy, total)
	}
}

func TestHomeAssignmentCoversDistricts(t *testing.T) {
	cfg := Config{Warehouses: 2, Districts: 3}
	seen := make(map[home]bool)
	for t := 0; t < 6; t++ {
		seen[homeOf(t, cfg)] = true
	}
	if len(seen) != 6 {
		t.Fatalf("6 terminals covered %d homes", len(seen))
	}
	for h := range seen {
		if h.w < 1 || h.w > 2 || h.d < 1 || h.d > 3 {
			t.Fatalf("home out of range: %+v", h)
		}
	}
}

func TestPickTxDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := make(map[TxType]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[pickTx(rng)]++
	}
	frac := func(t TxType) float64 { return float64(counts[t]) / n }
	if f := frac(NewOrderTx); f < 0.42 || f > 0.48 {
		t.Fatalf("newOrder fraction = %v, want ≈0.45", f)
	}
	if f := frac(PaymentTx); f < 0.40 || f > 0.46 {
		t.Fatalf("payment fraction = %v, want ≈0.43", f)
	}
	for _, typ := range []TxType{OrderStatusTx, DeliveryTx, StockLevelTx} {
		if f := frac(typ); f < 0.025 || f > 0.055 {
			t.Fatalf("%v fraction = %v, want ≈0.04", typ, f)
		}
	}
}

func TestTxTypeString(t *testing.T) {
	for _, typ := range []TxType{NewOrderTx, PaymentTx, OrderStatusTx, DeliveryTx, StockLevelTx} {
		if typ.String() == "unknown" {
			t.Fatalf("missing String for %d", typ)
		}
	}
}
