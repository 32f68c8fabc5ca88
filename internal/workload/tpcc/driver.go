package tpcc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/ginja-dr/ginja/internal/minidb"
)

// TxType enumerates the five TPC-C transaction profiles.
type TxType int

// Transaction profiles with the standard mix weights.
const (
	NewOrderTx TxType = iota
	PaymentTx
	OrderStatusTx
	DeliveryTx
	StockLevelTx
)

// String implements fmt.Stringer.
func (t TxType) String() string {
	switch t {
	case NewOrderTx:
		return "newOrder"
	case PaymentTx:
		return "payment"
	case OrderStatusTx:
		return "orderStatus"
	case DeliveryTx:
		return "delivery"
	case StockLevelTx:
		return "stockLevel"
	default:
		return "unknown"
	}
}

// pickTx draws a transaction type with the TPC-C mix: 45 % newOrder,
// 43 % payment, 4 % each for the rest.
func pickTx(rng *rand.Rand) TxType {
	r := rng.Intn(100)
	switch {
	case r < 45:
		return NewOrderTx
	case r < 88:
		return PaymentTx
	case r < 92:
		return OrderStatusTx
	case r < 96:
		return DeliveryTx
	default:
		return StockLevelTx
	}
}

// Result summarises one benchmark run.
type Result struct {
	// TpmC is the newOrder rate (transactions/minute) — the paper's
	// headline metric.
	TpmC float64
	// TpmTotal is the rate across all five transaction types.
	TpmTotal float64
	// Counts per transaction type.
	Counts map[TxType]int64
	// Duration is the measured wall-clock window.
	Duration time.Duration
	// Errors counts failed transactions (excluded from rates).
	Errors int64
}

// Driver runs the TPC-C workload against one database.
type Driver struct {
	db  *minidb.DB
	cfg Config
}

// NewDriver wraps db; Load must have been called with the same Config.
func NewDriver(db *minidb.DB, cfg Config) *Driver {
	return &Driver{db: db, cfg: cfg.normalized()}
}

// Run drives the configured number of terminals for the given duration
// (or until ctx is cancelled) and reports throughput. Each terminal has a
// home (warehouse, district) — like real TPC-C terminals — which also
// serialises the district's order-number counter without a lock manager.
func (dr *Driver) Run(ctx context.Context, duration time.Duration) (Result, error) {
	cfg := dr.cfg
	ctx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		counts = make(map[TxType]int64)
		errs   int64
	)
	start := time.Now()
	for t := 0; t < cfg.Terminals; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			term := dr.terminal(t)
			local := make(map[TxType]int64)
			var localErrs int64
			for ctx.Err() == nil {
				typ := pickTx(term.rng)
				if err := term.execute(typ); err != nil {
					if errors.Is(err, minidb.ErrClosed) || ctx.Err() != nil {
						break
					}
					localErrs++
					continue
				}
				local[typ]++
			}
			mu.Lock()
			for k, v := range local {
				counts[k] += v
			}
			errs += localErrs
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{Counts: counts, Duration: elapsed, Errors: errs}
	minutes := elapsed.Minutes()
	if minutes > 0 {
		var total int64
		for _, v := range counts {
			total += v
		}
		res.TpmC = float64(counts[NewOrderTx]) / minutes
		res.TpmTotal = float64(total) / minutes
	}
	return res, nil
}

// RunCount runs n transactions on the calling goroutine, the terminals
// taking turns (transaction i runs on terminal i mod Terminals). It starts
// no goroutine and reads no clock, so the run is a function of the Config
// alone and can drive a database whose storage runs on a virtual clock.
// The result carries counts only: no duration, no rates.
func (dr *Driver) RunCount(n int) (Result, error) {
	terms := make([]*terminal, dr.cfg.Terminals)
	for t := range terms {
		terms[t] = dr.terminal(t)
	}
	res := Result{Counts: make(map[TxType]int64)}
	for i := 0; i < n; i++ {
		term := terms[i%len(terms)]
		typ := pickTx(term.rng)
		if err := term.execute(typ); err != nil {
			if errors.Is(err, minidb.ErrClosed) {
				return res, err
			}
			res.Errors++
			continue
		}
		res.Counts[typ]++
	}
	return res, nil
}

// terminal builds client thread t with its own seeded stream and home.
func (dr *Driver) terminal(t int) *terminal {
	return &terminal{
		db:   dr.db,
		cfg:  dr.cfg,
		rng:  rand.New(rand.NewSource(dr.cfg.Seed + int64(t)*7919)),
		home: homeOf(t, dr.cfg),
		seq:  t * 1_000_000,
	}
}

// homeOf assigns terminal t a home (warehouse, district) round-robin.
type home struct{ w, d int }

func homeOf(t int, cfg Config) home {
	slot := t % (cfg.Warehouses * cfg.Districts)
	return home{w: slot/cfg.Districts + 1, d: slot%cfg.Districts + 1}
}

// terminal is one client thread.
type terminal struct {
	db   *minidb.DB
	cfg  Config
	rng  *rand.Rand
	home home
	seq  int // history-row sequence
}

func (t *terminal) execute(typ TxType) error {
	switch typ {
	case NewOrderTx:
		return t.newOrder()
	case PaymentTx:
		return t.payment()
	case OrderStatusTx:
		return t.orderStatus()
	case DeliveryTx:
		return t.delivery()
	case StockLevelTx:
		return t.stockLevel()
	default:
		return fmt.Errorf("tpcc: unknown tx type %d", typ)
	}
}

// newOrder implements the TPC-C newOrder profile: allocate an order id
// from the home district, pick 5–15 items, decrement stock, insert the
// order, its lines, and the new-order marker.
func (t *terminal) newOrder() error {
	w, d := t.home.w, t.home.d
	cid := 1 + t.rng.Intn(t.cfg.Customers)
	lines := 5 + t.rng.Intn(11)
	return t.db.Update(func(tx *minidb.Txn) error {
		var dist District
		raw, err := tx.Get(TableDistrict, districtKey(w, d))
		if err != nil {
			return err
		}
		if err := decode(raw, &dist); err != nil {
			return err
		}
		oid := dist.NextOID
		dist.NextOID++
		if err := tx.Put(TableDistrict, districtKey(w, d), encode(dist)); err != nil {
			return err
		}

		order := Order{ID: oid, DID: d, WID: w, CID: cid, LineCount: lines}
		for n := 1; n <= lines; n++ {
			iid := 1 + t.rng.Intn(t.cfg.Items)
			rawItem, err := tx.Get(TableItem, itemKey(iid))
			if err != nil {
				return err
			}
			var item Item
			if err := decode(rawItem, &item); err != nil {
				return err
			}
			rawStock, err := tx.Get(TableStock, stockKey(w, iid))
			if err != nil {
				return err
			}
			var stock Stock
			if err := decode(rawStock, &stock); err != nil {
				return err
			}
			qty := 1 + t.rng.Intn(10)
			if stock.Quantity >= qty+10 {
				stock.Quantity -= qty
			} else {
				stock.Quantity = stock.Quantity - qty + 91 // restock, per spec
			}
			stock.YTD += qty
			stock.OrderCnt++
			if err := tx.Put(TableStock, stockKey(w, iid), encode(stock)); err != nil {
				return err
			}
			ol := OrderLine{OID: oid, Number: n, IID: iid, Quantity: qty, Amount: float64(qty) * item.Price}
			if err := tx.Put(TableOrderLine, orderLineKey(w, d, oid, n), encode(ol)); err != nil {
				return err
			}
		}
		if err := tx.Put(TableOrders, orderKey(w, d, oid), encode(order)); err != nil {
			return err
		}
		if err := tx.Put(TableNewOrder, newOrderKey(w, d, oid), encode(order.ID)); err != nil {
			return err
		}
		// Track the customer's latest order for orderStatus.
		rawCust, err := tx.Get(TableCustomer, customerKey(w, d, cid))
		if err != nil {
			return err
		}
		var cust Customer
		if err := decode(rawCust, &cust); err != nil {
			return err
		}
		cust.LastOID = oid
		return tx.Put(TableCustomer, customerKey(w, d, cid), encode(cust))
	})
}

// payment updates warehouse/district YTD and the customer balance, and
// appends a history row.
func (t *terminal) payment() error {
	w, d := t.home.w, t.home.d
	cid := 1 + t.rng.Intn(t.cfg.Customers)
	amount := 1 + t.rng.Float64()*4999
	t.seq++
	seq := t.seq
	return t.db.Update(func(tx *minidb.Txn) error {
		var wh Warehouse
		raw, err := tx.Get(TableWarehouse, warehouseKey(w))
		if err != nil {
			return err
		}
		if err := decode(raw, &wh); err != nil {
			return err
		}
		wh.YTD += amount
		if err := tx.Put(TableWarehouse, warehouseKey(w), encode(wh)); err != nil {
			return err
		}

		var dist District
		raw, err = tx.Get(TableDistrict, districtKey(w, d))
		if err != nil {
			return err
		}
		if err := decode(raw, &dist); err != nil {
			return err
		}
		dist.YTD += amount
		if err := tx.Put(TableDistrict, districtKey(w, d), encode(dist)); err != nil {
			return err
		}

		var cust Customer
		raw, err = tx.Get(TableCustomer, customerKey(w, d, cid))
		if err != nil {
			return err
		}
		if err := decode(raw, &cust); err != nil {
			return err
		}
		cust.Balance -= amount
		cust.YTDPay += amount
		cust.PayCnt++
		if err := tx.Put(TableCustomer, customerKey(w, d, cid), encode(cust)); err != nil {
			return err
		}
		h := History{CID: cid, DID: d, WID: w, Amount: amount}
		return tx.Put(TableHistory, historyKey(w, d, seq), encode(h))
	})
}

// orderStatus reads a customer's most recent order and its lines
// (read-only).
func (t *terminal) orderStatus() error {
	w, d := t.home.w, t.home.d
	cid := 1 + t.rng.Intn(t.cfg.Customers)
	raw, err := t.db.Get(TableCustomer, customerKey(w, d, cid))
	if err != nil {
		return err
	}
	var cust Customer
	if err := decode(raw, &cust); err != nil {
		return err
	}
	if cust.LastOID == 0 {
		return nil // no orders yet
	}
	rawOrder, err := t.db.Get(TableOrders, orderKey(w, d, cust.LastOID))
	if err != nil {
		return err
	}
	var order Order
	if err := decode(rawOrder, &order); err != nil {
		return err
	}
	for n := 1; n <= order.LineCount; n++ {
		if _, err := t.db.Get(TableOrderLine, orderLineKey(w, d, order.ID, n)); err != nil {
			return err
		}
	}
	return nil
}

// delivery delivers the oldest undelivered order of the home district.
func (t *terminal) delivery() error {
	w, d := t.home.w, t.home.d
	carrier := 1 + t.rng.Intn(10)
	return t.db.Update(func(tx *minidb.Txn) error {
		var dist District
		raw, err := tx.Get(TableDistrict, districtKey(w, d))
		if err != nil {
			return err
		}
		if err := decode(raw, &dist); err != nil {
			return err
		}
		oid := dist.LastDlvO + 1
		if oid >= dist.NextOID {
			return nil // nothing to deliver
		}
		rawOrder, err := tx.Get(TableOrders, orderKey(w, d, oid))
		if err != nil {
			return nil // order lost to a disaster window; skip
		}
		var order Order
		if err := decode(rawOrder, &order); err != nil {
			return err
		}
		order.Carrier = carrier
		order.Delivered = true
		if err := tx.Put(TableOrders, orderKey(w, d, oid), encode(order)); err != nil {
			return err
		}
		if err := tx.Delete(TableNewOrder, newOrderKey(w, d, oid)); err != nil {
			return err
		}
		dist.LastDlvO = oid
		if err := tx.Put(TableDistrict, districtKey(w, d), encode(dist)); err != nil {
			return err
		}
		var cust Customer
		rawCust, err := tx.Get(TableCustomer, customerKey(w, d, order.CID))
		if err != nil {
			return err
		}
		if err := decode(rawCust, &cust); err != nil {
			return err
		}
		cust.DeliveryC++
		return tx.Put(TableCustomer, customerKey(w, d, order.CID), encode(cust))
	})
}

// stockLevel examines the order lines of the home district's last 20
// orders and counts distinct items below the stock threshold (the TPC-C
// stockLevel profile; read-only).
func (t *terminal) stockLevel() error {
	w, d := t.home.w, t.home.d
	raw, err := t.db.Get(TableDistrict, districtKey(w, d))
	if err != nil {
		return err
	}
	var dist District
	if err := decode(raw, &dist); err != nil {
		return err
	}
	lowFrom := dist.NextOID - 20
	if lowFrom < 1 {
		lowFrom = 1
	}
	// Scan the district's order lines and keep those of recent orders.
	prefix := fmt.Sprintf("ol:%04d:%02d:", w, d)
	lines, err := t.db.Scan(TableOrderLine, prefix)
	if err != nil {
		return err
	}
	seen := make(map[int]bool)
	low := 0
	for _, kv := range lines {
		var ol OrderLine
		if err := decode(kv.Value, &ol); err != nil {
			return err
		}
		if ol.OID < lowFrom || seen[ol.IID] {
			continue
		}
		seen[ol.IID] = true
		rawStock, err := t.db.Get(TableStock, stockKey(w, ol.IID))
		if err != nil {
			return err
		}
		var stock Stock
		if err := decode(rawStock, &stock); err != nil {
			return err
		}
		if stock.Quantity < 15 {
			low++
		}
	}
	_ = low
	return nil
}
