package cloudsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
)

func newFast(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.TimeScale == 0 {
		opts.TimeScale = -1 // never sleep in unit tests
	}
	return New(cloud.NewMemStore(), opts)
}

func TestProfileLatencyShape(t *testing.T) {
	p := WANProfile()
	// The model must reproduce Table 3's shape: ≈692 ms for 386 kB and
	// ≈7.7 s for ≈10 MB objects (±35 %).
	cases := []struct {
		sizeKB int64
		wantMS float64
	}{
		{386, 692},
		{3018, 2880},
		{10081, 7707},
	}
	for _, tc := range cases {
		got := p.PutLatency(tc.sizeKB*1000).Seconds() * 1000
		if got < tc.wantMS*0.65 || got > tc.wantMS*1.35 {
			t.Errorf("PutLatency(%dkB) = %.0fms, want ≈%.0fms", tc.sizeKB, got, tc.wantMS)
		}
	}
}

func TestProfileMonotonicInSize(t *testing.T) {
	for _, p := range []Profile{WANProfile(), LANProfile()} {
		prev := time.Duration(0)
		for size := int64(0); size <= 20<<20; size += 4 << 20 {
			d := p.PutLatency(size)
			if d < prev {
				t.Fatalf("PutLatency not monotonic at size %d", size)
			}
			prev = d
		}
	}
}

func TestLANFasterThanWAN(t *testing.T) {
	size := int64(1 << 20)
	if LANProfile().GetLatency(size) >= WANProfile().GetLatency(size) {
		t.Fatal("LAN profile should be faster than WAN")
	}
}

func TestStorePassthrough(t *testing.T) {
	s := newFast(t, Options{})
	ctx := context.Background()
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v" {
		t.Fatalf("Get = %q", got)
	}
	infos, err := s.List(ctx, "")
	if err != nil || len(infos) != 1 {
		t.Fatalf("List = %v, %v", infos, err)
	}
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestStoreOutage(t *testing.T) {
	s := newFast(t, Options{})
	ctx := context.Background()
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.StartOutage()
	if !s.Down() {
		t.Fatal("Down() should be true during outage")
	}
	if err := s.Put(ctx, "k2", []byte("v")); !errors.Is(err, ErrOutage) {
		t.Fatalf("Put during outage = %v, want ErrOutage", err)
	}
	if _, err := s.Get(ctx, "k"); !errors.Is(err, ErrOutage) {
		t.Fatalf("Get during outage = %v, want ErrOutage", err)
	}
	if _, err := s.List(ctx, ""); !errors.Is(err, ErrOutage) {
		t.Fatalf("List during outage = %v, want ErrOutage", err)
	}
	if err := s.Delete(ctx, "k"); !errors.Is(err, ErrOutage) {
		t.Fatalf("Delete during outage = %v, want ErrOutage", err)
	}
	s.EndOutage()
	if _, err := s.Get(ctx, "k"); err != nil {
		t.Fatalf("Get after outage = %v", err)
	}
}

func TestStoreInjectedFailures(t *testing.T) {
	s := newFast(t, Options{FailureRate: 1.0})
	if err := s.Put(context.Background(), "k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put = %v, want ErrInjected", err)
	}
}

func TestStoreFailureRateApproximate(t *testing.T) {
	s := newFast(t, Options{FailureRate: 0.3, Seed: 7})
	ctx := context.Background()
	fails := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if err := s.Put(ctx, "k", []byte("v")); err != nil {
			fails++
		}
	}
	if fails < n*20/100 || fails > n*40/100 {
		t.Fatalf("failure count %d/%d, want ≈30%%", fails, n)
	}
}

func TestStoreModelledLatencyRecorded(t *testing.T) {
	s := newFast(t, Options{Profile: WANProfile()})
	ctx := context.Background()
	if err := s.Put(ctx, "k", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	stats := s.PutLatencyModel()
	if stats.Count != 1 {
		t.Fatalf("Count = %d", stats.Count)
	}
	// 1 MiB at ≈1.4 MB/s + 400 ms base ≈ 1.1 s modelled, even though the
	// test slept zero real time.
	if stats.Mean() < 500*time.Millisecond || stats.Mean() > 3*time.Second {
		t.Fatalf("modelled mean = %v, want ≈1.1s", stats.Mean())
	}
	s.ResetLatencyModel()
	if s.PutLatencyModel().Count != 0 {
		t.Fatal("ResetLatencyModel did not clear stats")
	}
}

func TestStoreTimeScaleCompressesRealTime(t *testing.T) {
	s := New(cloud.NewMemStore(), Options{
		Profile:   Profile{BaseLatency: 200 * time.Millisecond, UploadBandwidth: 1e9, DownloadBandwidth: 1e9},
		TimeScale: 100,
	})
	start := time.Now()
	if err := s.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if real := time.Since(start); real > 100*time.Millisecond {
		t.Fatalf("scaled Put took %v of real time, want ≈2ms", real)
	}
	if m := s.PutLatencyModel().Mean(); m < 150*time.Millisecond {
		t.Fatalf("modelled latency %v should stay unscaled", m)
	}
}

func TestStoreContextCancellation(t *testing.T) {
	s := New(cloud.NewMemStore(), Options{
		Profile:   Profile{BaseLatency: 10 * time.Second, UploadBandwidth: 1, DownloadBandwidth: 1},
		TimeScale: 1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Put(ctx, "k", []byte("v")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Put = %v, want DeadlineExceeded", err)
	}
}

func TestJitterBounded(t *testing.T) {
	p := WANProfile()
	r := &opRand{seed: 42}
	base := p.PutLatency(1 << 20)
	for i := 0; i < 100; i++ {
		_, u := r.draw("put", "k", time.Unix(0, int64(i)))
		d := p.jittered(base, u)
		lo := time.Duration(float64(base) * (1 - p.JitterFraction - 1e-9))
		hi := time.Duration(float64(base) * (1 + p.JitterFraction + 1e-9))
		if d < lo || d > hi {
			t.Fatalf("jittered %v outside [%v, %v]", d, lo, hi)
		}
	}
}
