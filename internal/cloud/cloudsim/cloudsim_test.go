package cloudsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/simclock"
)

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
	s := New(cloud.NewMemStore(), Options{})
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
	s := New(cloud.NewMemStore(), Options{})
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
	s := New(cloud.NewMemStore(), Options{FailureRate: 1.0})
	if err := s.Put(context.Background(), "k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put = %v, want ErrInjected", err)
	}
}

func TestStoreFailureRateApproximate(t *testing.T) {
	s := New(cloud.NewMemStore(), Options{FailureRate: 0.3, Seed: 7})
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

// TestStoreSleepsModelledLatency: on a SimClock each operation costs
// exactly its modelled latency in virtual time, and the zero Profile is an
// instant store.
func TestStoreSleepsModelledLatency(t *testing.T) {
	ctx := context.Background()
	p := WANProfile()
	p.JitterFraction = 0
	for _, tc := range []struct {
		name    string
		profile Profile
		put     time.Duration
	}{
		{"wan", p, p.PutLatency(1 << 20)},
		{"zero", Profile{}, 0},
	} {
		clk := simclock.NewSim()
		s := New(cloud.NewMemStore(), Options{Profile: tc.profile, Clock: clk})
		t0 := clk.Now()
		if err := s.Put(ctx, "k", make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
		if got := clk.Since(t0); got != tc.put {
			t.Errorf("%s: Put took %v of virtual time, want %v", tc.name, got, tc.put)
		}
	}
}

func TestStoreContextCancellation(t *testing.T) {
	s := New(cloud.NewMemStore(), Options{
		Profile: Profile{BaseLatency: 10 * time.Second, UploadBandwidth: 1, DownloadBandwidth: 1},
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
