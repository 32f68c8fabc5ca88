// Multi-cloud: replicate the backup across several storage providers so
// that even a provider-scale outage (paper §6, citing DepSky [19], and
// the cloud-outage study [28]) cannot take the disaster-recovery copy
// down. Writes need a majority of providers; recovery reads from whoever
// answers.
//
//	go run ./examples/multicloud
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/ginja-dr/ginja"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// Three independent "providers". Provider C sits behind the
	// fault-injecting simulator so we can take it down on demand.
	providerA := ginja.NewMemStore()
	providerB := ginja.NewMemStore()
	providerCBacking := ginja.NewMemStore()
	providerC := ginja.NewSimStore(providerCBacking, ginja.SimOptions{})

	multi, err := ginja.NewReplicatedStore(providerA, providerB, providerC)
	if err != nil {
		return err
	}

	params := ginja.DefaultParams()
	params.Batch = 4
	params.Safety = 64
	params.Encrypt = true // never hand plaintext to any provider
	params.Password = "multi-cloud-secret"

	local := ginja.NewMemFS()
	g, err := ginja.New(local, multi, ginja.NewPGProcessor(), params)
	if err != nil {
		return err
	}
	if err := g.Boot(ctx); err != nil {
		return err
	}
	defer g.Close()
	db, err := ginja.OpenDB(g.FS(), ginja.NewPostgresEngine(), ginja.DBOptions{})
	if err != nil {
		return err
	}
	if err := db.CreateTable("ledger", 0); err != nil {
		return err
	}

	write := func(from, to int) error {
		for i := from; i < to; i++ {
			if err := db.Update(func(tx *ginja.Txn) error {
				return tx.Put("ledger", []byte(fmt.Sprintf("entry-%03d", i)), []byte("amount=100"))
			}); err != nil {
				return err
			}
		}
		if !g.Flush(30 * time.Second) {
			return fmt.Errorf("flush")
		}
		return nil
	}

	if err := write(0, 20); err != nil {
		return err
	}
	fmt.Println("20 entries replicated to 3 providers")

	// Provider C suffers a full outage. A majority (A, B) remains — the
	// database never notices.
	providerC.StartOutage()
	fmt.Println("provider C goes DOWN (outage)")
	if err := write(20, 40); err != nil {
		return fmt.Errorf("writes failed during single-provider outage: %w", err)
	}
	fmt.Println("20 more entries replicated during the outage (majority quorum)")

	// Provider C comes back: one anti-entropy pass restores full
	// redundancy (every object re-replicated to C).
	providerC.EndOutage()
	report, err := multi.Repair(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("provider C repaired: %d objects copied back, %d garbage removed\n",
		report.Copied, report.Removed)

	// Disaster at the primary: recover from the providers.
	fresh := ginja.NewMemFS()
	g2, err := ginja.New(fresh, multi, ginja.NewPGProcessor(), params)
	if err != nil {
		return err
	}
	if err := g2.Recover(ctx); err != nil {
		return err
	}
	defer g2.Close()
	db2, err := ginja.OpenDB(g2.FS(), ginja.NewPostgresEngine(), ginja.DBOptions{})
	if err != nil {
		return err
	}
	defer db2.Close()
	for _, probe := range []string{"entry-000", "entry-020", "entry-039"} {
		if _, err := db2.Get("ledger", []byte(probe)); err != nil {
			return fmt.Errorf("%s lost: %w", probe, err)
		}
	}
	fmt.Println("recovered all 40 entries after the provider outage")
	return nil
}
