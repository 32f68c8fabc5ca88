package cloud

import (
	"context"
	"math"
	"testing"
)

func TestMeteredStoreCounts(t *testing.T) {
	m := NewMeteredStore(NewMemStore(), AmazonS3May2017())
	ctx := context.Background()

	if err := m.Put(ctx, "a", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(ctx, "b", make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}

	c := m.Counts()
	if c.Puts != 2 || c.Gets != 1 || c.Lists != 1 || c.Deletes != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.BytesUp != 1500 {
		t.Fatalf("BytesUp = %d, want 1500", c.BytesUp)
	}
	if c.BytesDown != 1000 {
		t.Fatalf("BytesDown = %d, want 1000", c.BytesDown)
	}
	if c.StoredBytes != 1000 {
		t.Fatalf("StoredBytes = %d, want 1000 (after delete)", c.StoredBytes)
	}
	if c.PeakStoredBytes != 1500 {
		t.Fatalf("PeakStoredBytes = %d, want 1500", c.PeakStoredBytes)
	}
}

func TestMeteredStoreOverwriteOccupancy(t *testing.T) {
	m := NewMeteredStore(NewMemStore(), AmazonS3May2017())
	ctx := context.Background()
	if err := m.Put(ctx, "k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(ctx, "k", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if got := m.Counts().StoredBytes; got != 40 {
		t.Fatalf("StoredBytes = %d, want 40 after overwrite", got)
	}
}

func TestBillMatchesPriceSheet(t *testing.T) {
	prices := AmazonS3May2017()
	m := NewMeteredStore(NewMemStore(), prices)
	ctx := context.Background()

	// 10 GB stored via one PUT (conceptually), downloaded once.
	payload := make([]byte, 1<<20) // 1 MiB per op to keep the test light
	const ops = 10
	for i := 0; i < ops; i++ {
		if err := m.Put(ctx, string(rune('a'+i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	bill := m.Bill()

	wantStorage := prices.StorageCost(int64(ops * len(payload)))
	if math.Abs(bill.Storage-wantStorage) > 1e-12 {
		t.Fatalf("Storage = %v, want %v", bill.Storage, wantStorage)
	}
	wantUploads := float64(ops) * prices.PerPUT
	if math.Abs(bill.Uploads-wantUploads) > 1e-12 {
		t.Fatalf("Uploads = %v, want %v", bill.Uploads, wantUploads)
	}
	if bill.Total() <= 0 {
		t.Fatal("Total should be positive")
	}
}

func TestMeteredStoreReset(t *testing.T) {
	m := NewMeteredStore(NewMemStore(), AmazonS3May2017())
	ctx := context.Background()
	if err := m.Put(ctx, "k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	c := m.Counts()
	if c.Puts != 0 || c.BytesUp != 0 {
		t.Fatalf("after Reset counts = %+v", c)
	}
	if c.StoredBytes != 100 {
		t.Fatalf("Reset must preserve occupancy, StoredBytes = %d", c.StoredBytes)
	}
}

func TestPriceSheetHelpers(t *testing.T) {
	p := AmazonS3May2017()
	if got := p.StorageCost(10 * GB); math.Abs(got-0.23) > 1e-9 {
		t.Fatalf("StorageCost(10GB) = %v, want 0.23", got)
	}
	// 1000 PUTs cost $0.005 on S3.
	if got := p.UploadCost(1000, 0); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("UploadCost(1000) = %v, want 0.005", got)
	}
	// Downloading a GB is ≈3.9× storing it for a month (paper §7.3 "almost 4×").
	ratio := p.EgressPerGB / p.StoragePerGBMonth
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("egress/storage ratio = %v, want ≈4", ratio)
	}
}
