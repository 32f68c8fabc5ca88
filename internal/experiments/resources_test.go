package experiments

import "testing"

func TestResourceSampler(t *testing.T) {
	s := NewResourceSampler()
	// Burn a little CPU so the sample is non-trivial on Linux.
	x := 0
	for i := 0; i < 5_000_000; i++ {
		x += i % 7
	}
	_ = x
	u := s.Sample()
	if u.HeapBytes == 0 || u.SysBytes == 0 {
		t.Fatalf("memory stats empty: %+v", u)
	}
	if u.Goroutines <= 0 {
		t.Fatalf("Goroutines = %d", u.Goroutines)
	}
	if u.CPUPercent < 0 {
		t.Fatalf("CPUPercent = %v", u.CPUPercent)
	}
	if u.String() == "" {
		t.Fatal("empty String()")
	}
	if pct := u.MemoryPercent(32 << 30); pct <= 0 || pct > 100 {
		t.Fatalf("MemoryPercent = %v", pct)
	}
	if u.MemoryPercent(0) != 0 {
		t.Fatal("MemoryPercent(0) should be 0")
	}
}
