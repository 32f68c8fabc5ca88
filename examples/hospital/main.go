// Hospital: the paper's high-end scenario (Table 2) — a 1 TB-class
// database with hundreds of transactions per minute, where DB-object
// storage dominates the bill. This example drives a MySQL-personality
// database (circular redo log, fuzzy checkpoints) under a TPC-C-style
// load, through an S3-style HTTP server running in-process, and reports
// the measured cloud usage next to the paper's hospital economics.
//
//	go run ./examples/hospital
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"github.com/ginja-dr/ginja"
	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/costmodel"
	"github.com/ginja-dr/ginja/internal/workload/tpcc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// The hospital talks to its storage cloud over HTTP: an S3-style
	// server (the same handler cmd/cloudsim serves) backed by memory.
	backend := ginja.NewMemStore()
	srv := httptest.NewServer(ginja.NewS3Handler(backend))
	defer srv.Close()
	client := ginja.NewS3Client(srv.URL, srv.Client())
	metered := ginja.NewMeteredStore(client, ginja.AmazonS3Prices())

	params := ginja.DefaultParams()
	params.Batch = 23 // ≈138 updates/min at 6 syncs/min
	params.Safety = 300
	params.Compress = true

	local := ginja.NewMemFS()
	g, err := ginja.New(local, metered, ginja.NewInnoProcessor(), params)
	if err != nil {
		return err
	}
	if err := g.Boot(ctx); err != nil {
		return err
	}
	defer g.Close()

	db, err := ginja.OpenDB(g.FS(), ginja.NewMySQLEngine(), ginja.DBOptions{})
	if err != nil {
		return err
	}
	cfg := tpcc.Config{Warehouses: 2, Districts: 4, Customers: 10, Items: 50, Terminals: 8, Seed: 11}
	fmt.Println("loading the hospital's OLTP schema (TPC-C) ...")
	if err := tpcc.Load(db, cfg); err != nil {
		return err
	}
	fmt.Println("running the ward's transaction mix for 1 second ...")
	res, err := tpcc.NewDriver(db, cfg).Run(ctx, time.Second)
	if err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if !g.Flush(time.Minute) {
		return fmt.Errorf("uploads did not drain")
	}

	s := g.Stats()
	counts := metered.Counts()
	fmt.Printf("throughput: Tpm-C %.0f, Tpm-Total %.0f\n", res.TpmC, res.TpmTotal)
	fmt.Printf("cloud (over HTTP): %d PUTs, %.1f MB up, %d deletes; ginja uploaded %d WAL + %d DB objects\n",
		counts.Puts, float64(counts.BytesUp)/(1<<20), counts.Deletes,
		s.WALObjectsUploaded, s.DBObjectsUploaded)

	fmt.Println()
	fmt.Println("Paper Table 2 (cost model, full-scale 1 TB hospital):")
	prices := cloud.AmazonS3May2017()
	for _, syncs := range []float64{1, 6} {
		sc := costmodel.Hospital(syncs)
		c := sc.GinjaMonthly(prices)
		fmt.Printf("  %.0f sync/min: Ginja $%.2f/month (storage $%.2f dominates) vs EC2 VM $%.1f (%.0f× cheaper)\n",
			syncs, c.Total(), c.DBStorage, sc.VMMonthly, sc.SavingsFactor(prices))
	}
	fmt.Printf("  recovery after a disaster: $%.2f to on-premises, free to an in-region VM (§7.3)\n",
		costmodel.RecoveryCost(costmodel.Hospital(1).Deployment(), prices, false))
	return nil
}
