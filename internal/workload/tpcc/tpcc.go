// Package tpcc implements a TPC-C-style workload generator over minidb,
// reproducing the role TPC-C plays in the paper's evaluation (§8): an
// update-heavy OLTP commit generator (≈90 % updates) whose throughput is
// reported as Tpm-C (newOrder transactions per minute) and Tpm-Total.
//
// The schema and transaction mix follow the TPC-C specification
// (warehouse/district/customer/item/stock/orders/order-line/new-order/
// history; 45 % newOrder, 43 % payment, 4 % each orderStatus, delivery,
// stockLevel), with scale factors configurable far below the standard
// (3000 customers/district etc.) so laptop-scale experiments stay fast.
package tpcc

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// Table names.
const (
	TableWarehouse = "warehouse"
	TableDistrict  = "district"
	TableCustomer  = "customer"
	TableItem      = "item"
	TableStock     = "stock"
	TableOrders    = "orders"
	TableOrderLine = "order_line"
	TableNewOrder  = "new_order"
	TableHistory   = "history"
)

// Tables lists every TPC-C table.
func Tables() []string {
	return []string{
		TableWarehouse, TableDistrict, TableCustomer, TableItem, TableStock,
		TableOrders, TableOrderLine, TableNewOrder, TableHistory,
	}
}

// Config scales the benchmark.
type Config struct {
	// Warehouses is the TPC-C scale factor (the paper uses 1 for
	// PostgreSQL, 2 for MySQL, and 1/5/10 in the recovery experiment).
	Warehouses int
	// Districts per warehouse (10 in the spec).
	Districts int
	// Customers per district (3000 in the spec; default 30 for
	// laptop-scale runs).
	Customers int
	// Items in the catalogue (100000 in the spec; default 100).
	Items int
	// Terminals is the number of concurrent client threads.
	Terminals int
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Warehouses: 1,
		Districts:  10,
		Customers:  30,
		Items:      100,
		Terminals:  5,
		Seed:       1,
	}
}

func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.Warehouses == 0 {
		c.Warehouses = d.Warehouses
	}
	if c.Districts == 0 {
		c.Districts = d.Districts
	}
	if c.Customers == 0 {
		c.Customers = d.Customers
	}
	if c.Items == 0 {
		c.Items = d.Items
	}
	if c.Terminals == 0 {
		c.Terminals = d.Terminals
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Row types. JSON-encoded into minidb values; fields are abbreviated like
// the TPC-C column names.
type (
	// Warehouse row.
	Warehouse struct {
		ID   int     `json:"id"`
		Name string  `json:"name"`
		Tax  float64 `json:"tax"`
		YTD  float64 `json:"ytd"`
	}
	// District row.
	District struct {
		ID       int     `json:"id"`
		WID      int     `json:"w_id"`
		Tax      float64 `json:"tax"`
		YTD      float64 `json:"ytd"`
		NextOID  int     `json:"next_o_id"`
		LastDlvO int     `json:"last_dlv_o"` // delivery cursor
	}
	// Customer row.
	Customer struct {
		ID        int     `json:"id"`
		DID       int     `json:"d_id"`
		WID       int     `json:"w_id"`
		Name      string  `json:"name"`
		Balance   float64 `json:"balance"`
		YTDPay    float64 `json:"ytd_pay"`
		PayCnt    int     `json:"pay_cnt"`
		LastOID   int     `json:"last_o_id"`
		DeliveryC int     `json:"delivery_cnt"`
	}
	// Item row.
	Item struct {
		ID    int     `json:"id"`
		Name  string  `json:"name"`
		Price float64 `json:"price"`
	}
	// Stock row.
	Stock struct {
		IID      int `json:"i_id"`
		WID      int `json:"w_id"`
		Quantity int `json:"quantity"`
		YTD      int `json:"ytd"`
		OrderCnt int `json:"order_cnt"`
	}
	// Order row.
	Order struct {
		ID        int  `json:"id"`
		DID       int  `json:"d_id"`
		WID       int  `json:"w_id"`
		CID       int  `json:"c_id"`
		LineCount int  `json:"line_count"`
		Carrier   int  `json:"carrier"`
		Delivered bool `json:"delivered"`
	}
	// OrderLine row.
	OrderLine struct {
		OID      int     `json:"o_id"`
		Number   int     `json:"number"`
		IID      int     `json:"i_id"`
		Quantity int     `json:"quantity"`
		Amount   float64 `json:"amount"`
	}
	// History row.
	History struct {
		CID    int     `json:"c_id"`
		DID    int     `json:"d_id"`
		WID    int     `json:"w_id"`
		Amount float64 `json:"amount"`
	}
)

// Key builders.
func warehouseKey(w int) []byte      { return []byte(fmt.Sprintf("w:%04d", w)) }
func districtKey(w, d int) []byte    { return []byte(fmt.Sprintf("d:%04d:%02d", w, d)) }
func customerKey(w, d, c int) []byte { return []byte(fmt.Sprintf("c:%04d:%02d:%05d", w, d, c)) }
func itemKey(i int) []byte           { return []byte(fmt.Sprintf("i:%06d", i)) }
func stockKey(w, i int) []byte       { return []byte(fmt.Sprintf("s:%04d:%06d", w, i)) }
func orderKey(w, d, o int) []byte    { return []byte(fmt.Sprintf("o:%04d:%02d:%08d", w, d, o)) }
func orderLineKey(w, d, o, n int) []byte {
	return []byte(fmt.Sprintf("ol:%04d:%02d:%08d:%02d", w, d, o, n))
}
func newOrderKey(w, d, o int) []byte  { return []byte(fmt.Sprintf("no:%04d:%02d:%08d", w, d, o)) }
func historyKey(w, d, seq int) []byte { return []byte(fmt.Sprintf("h:%04d:%02d:%08d", w, d, seq)) }

func encode(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("tpcc: marshal %T: %v", v, err)) // rows are always marshalable
	}
	return data
}

func decode(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("tpcc: corrupt row: %w", err)
	}
	return nil
}

// randName produces short string payloads.
func randName(rng *rand.Rand, prefix string) string {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	n := 6 + rng.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return prefix + string(b)
}
