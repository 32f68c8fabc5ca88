// Point-in-time recovery: the paper's §5.4 extension — keep superseded
// objects for a retention window so the database can be restored to a
// state *before* an operator mistake or a ransomware-style corruption,
// "such as the recent WannaCry virus" (§5.4).
//
// The example keeps an hour of history (Params.RetainFor), lets
// "ransomware" scramble every row, and then restores the exact commit
// prefix that ends at the last WAL timestamp before the attack.
//
//	go run ./examples/pitr
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
	store := ginja.NewMemStore()

	params := ginja.DefaultParams()
	params.Batch = 4
	params.Safety = 64
	params.RetainFor = time.Hour // every ts of the last hour is a restore point
	params.DumpThreshold = 1.0   // dump eagerly so old objects get superseded

	local := ginja.NewMemFS()
	g, err := ginja.New(local, store, ginja.NewPGProcessor(), params)
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
	if err := db.CreateTable("documents", 8); err != nil {
		return err
	}

	// Three days of honest work, each ending in a checkpoint.
	for day := 1; day <= 3; day++ {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("doc-%02d", i)
			val := fmt.Sprintf("day-%d content of %s", day, key)
			if err := db.Update(func(tx *ginja.Txn) error {
				return tx.Put("documents", []byte(key), []byte(val))
			}); err != nil {
				return err
			}
		}
		if !g.Flush(30 * time.Second) {
			return fmt.Errorf("flush day %d", day)
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
		if !g.SyncCheckpoints(10 * time.Second) {
			return fmt.Errorf("day %d checkpoint upload", day)
		}
		fmt.Printf("day %d checkpointed and replicated\n", day)
	}
	// The checkpoint writes a WAL record of its own; once that is
	// replicated too, the last WAL timestamp is the newest clean restore
	// point.
	if !g.Flush(30 * time.Second) {
		return fmt.Errorf("flush day 3 checkpoint")
	}
	clean := g.View().LastWALTs()

	// Day 4: ransomware scrambles everything — and Ginja, faithfully,
	// replicates the damage.
	fmt.Println("day 4: RANSOMWARE encrypts every document ...")
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("doc-%02d", i)
		if err := db.Update(func(tx *ginja.Txn) error {
			return tx.Put("documents", []byte(key), []byte("!!ENCRYPTED-PAY-US!!"))
		}); err != nil {
			return err
		}
	}
	if !g.Flush(30 * time.Second) {
		return fmt.Errorf("flush ransomware writes")
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if !g.SyncCheckpoints(10 * time.Second) {
		return fmt.Errorf("ransomware checkpoint upload")
	}

	// A plain Recover would faithfully restore the corrupted state. The
	// retention window lets us go back instead: the dumps since day 3
	// superseded the objects that restore point needs, but did not delete
	// them.
	fmt.Printf("dumps so far: %d; restoring the prefix up to WAL ts %d\n", g.Stats().Dumps, clean)

	target := ginja.NewMemFS()
	gr, err := ginja.New(ginja.NewMemFS(), store, ginja.NewPGProcessor(), params)
	if err != nil {
		return err
	}
	if err := gr.RecoverAt(ctx, target, clean); err != nil {
		return err
	}
	restored, err := ginja.OpenDB(target, ginja.NewPostgresEngine(), ginja.DBOptions{})
	if err != nil {
		return err
	}
	defer restored.Close()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("doc-%02d", i)
		v, err := restored.Get("documents", []byte(key))
		if err != nil {
			return err
		}
		if want := fmt.Sprintf("day-3 content of %s", key); string(v) != want {
			return fmt.Errorf("restored %s = %q, want %q — PITR failed", key, v, want)
		}
	}
	fmt.Println("restored all 10 documents to their day-3 content")
	fmt.Println("point-in-time recovery beat the ransomware")
	return nil
}
