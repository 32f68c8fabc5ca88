// Point-in-time recovery: the paper's §5.4 extension — retain old dump
// generations so the database can be restored to a state *before* an
// operator mistake or a ransomware-style corruption, "such as the recent
// WannaCry virus" (§5.4).
//
// The example keeps 3 generations, lets "ransomware" scramble every row,
// and then restores the last clean generation.
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
	params.PITRGenerations = 3 // keep three restore points
	params.DumpThreshold = 1.0 // dump eagerly so generations cycle fast

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

	// Three days of honest work, each ending in a checkpoint (= one
	// retained generation).
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
	// retained generations let us go back instead.
	dumps := dumpGenerations(g)
	fmt.Printf("retained dump generations (by timestamp): %v\n", dumps)
	clean := dumps[len(dumps)-2] // the last generation before day 4

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
	v, err := restored.Get("documents", []byte("doc-00"))
	if err != nil {
		return err
	}
	fmt.Printf("restored doc-00 from generation ts=%d: %q\n", clean, v)
	if string(v) == "!!ENCRYPTED-PAY-US!!" {
		return fmt.Errorf("restored the corrupted state — PITR failed")
	}
	fmt.Println("point-in-time recovery beat the ransomware")
	return nil
}

// dumpGenerations lists the retained dumps' timestamps, ascending.
func dumpGenerations(g *ginja.Ginja) []int64 {
	var out []int64
	for _, d := range g.View().DBObjects() {
		if d.Type == "dump" {
			out = append(out, d.Ts)
		}
	}
	return out
}
