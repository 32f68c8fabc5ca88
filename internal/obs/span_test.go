package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
)

// TestSpanRingSlowestSurvivesChurn records far more spans than either
// retention bucket holds and checks the slowest-N set keeps exactly the
// global worst spans while the recent ring keeps only the tail.
func TestSpanRingSlowestSurvivesChurn(t *testing.T) {
	const recentCap, slowCap, n = 16, 4, 10_000
	ring := NewSpanRing(recentCap, slowCap)
	base := time.Unix(0, 0)
	for i := 1; i <= n; i++ {
		d := time.Duration(i) * time.Microsecond
		if i%997 == 0 {
			// Rare outliers, planted early and often overwritten in the
			// recent ring — only slowest-N retention can keep them.
			d = time.Duration(i) * time.Second
		}
		ring.Record(Span{Name: "op", ID: int64(i), Start: base, Duration: d})
	}
	recent, slowest, total := ring.Snapshot()
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
	if len(recent) != recentCap {
		t.Fatalf("recent len = %d, want %d", len(recent), recentCap)
	}
	if recent[0].ID != n || recent[recentCap-1].ID != n-recentCap+1 {
		t.Fatalf("recent not newest-first: ids %d..%d", recent[0].ID, recent[recentCap-1].ID)
	}
	if len(slowest) != slowCap {
		t.Fatalf("slowest len = %d, want %d", len(slowest), slowCap)
	}
	// The four slowest are the four largest outliers: 997*k seconds.
	wantIDs := []int64{10 * 997, 9 * 997, 8 * 997, 7 * 997}
	for i, want := range wantIDs {
		if slowest[i].ID != want {
			t.Fatalf("slowest[%d].ID = %d, want %d (got %+v)", i, slowest[i].ID, want, slowest)
		}
	}
	for i := 1; i < len(slowest); i++ {
		if slowest[i].Duration > slowest[i-1].Duration {
			t.Fatalf("slowest not sorted descending at %d", i)
		}
	}
}

// TestSpanRingPartialFill covers a ring snapshot before either retention
// bucket has wrapped.
func TestSpanRingPartialFill(t *testing.T) {
	ring := NewSpanRing(8, 4)
	ring.Record(Span{Name: "a", ID: 1, Duration: time.Millisecond})
	ring.Record(Span{Name: "b", ID: 2, Duration: 2 * time.Millisecond})
	recent, slowest, total := ring.Snapshot()
	if total != 2 || len(recent) != 2 || len(slowest) != 2 {
		t.Fatalf("total=%d recent=%d slowest=%d, want 2/2/2", total, len(recent), len(slowest))
	}
	if recent[0].ID != 2 || slowest[0].ID != 2 {
		t.Fatalf("ordering wrong: recent[0]=%+v slowest[0]=%+v", recent[0], slowest[0])
	}
}

// TestTracezEndpoint exercises /tracez end to end: spans recorded into the
// registry ring surface as JSON with recent + slowest sections.
func TestTracezEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.ConfigureSpans(8, 2)
	ring := reg.Spans()
	for i := 1; i <= 20; i++ {
		ring.Record(Span{
			Name:     "wal_put",
			ID:       int64(i),
			Extra:    512,
			Start:    time.Unix(int64(i), 0),
			Duration: time.Duration(i) * time.Millisecond,
		})
	}
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()

	code, body := getBody(t, srv, "/tracez")
	if code != 200 {
		t.Fatalf("/tracez = %d\n%s", code, body)
	}
	var tz struct {
		Total   uint64 `json:"total"`
		Recent  []struct {
			Name       string  `json:"name"`
			ID         int64   `json:"id"`
			Extra      int64   `json:"extra"`
			DurationMs float64 `json:"duration_ms"`
		} `json:"recent"`
		Slowest []struct {
			ID         int64   `json:"id"`
			DurationMs float64 `json:"duration_ms"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(body), &tz); err != nil {
		t.Fatalf("tracez body not JSON: %v\n%s", err, body)
	}
	if tz.Total != 20 {
		t.Fatalf("total = %d, want 20", tz.Total)
	}
	if len(tz.Recent) != 8 || tz.Recent[0].ID != 20 {
		t.Fatalf("recent = %+v, want 8 spans newest-first", tz.Recent)
	}
	if tz.Recent[0].Name != "wal_put" || tz.Recent[0].Extra != 512 {
		t.Fatalf("span fields lost: %+v", tz.Recent[0])
	}
	if len(tz.Slowest) != 2 || tz.Slowest[0].ID != 20 || tz.Slowest[1].ID != 19 {
		t.Fatalf("slowest = %+v, want ids 20,19", tz.Slowest)
	}
	if tz.Slowest[0].DurationMs != 20 {
		t.Fatalf("duration_ms = %v, want 20", tz.Slowest[0].DurationMs)
	}
}

// TestHealthHysteresis checks that a short run of failures — a transient
// fault absorbed by a retry — does not flip /healthz, while a run at the
// threshold does, and one success arms the hysteresis again.
func TestHealthHysteresis(t *testing.T) {
	reg := NewRegistry()
	sim := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	store := InstrumentStore(sim, reg, "cloud")
	ctx := context.Background()

	// threshold-1 consecutive failures: still healthy.
	sim.StartOutage()
	for i := 0; i < DefaultHealthThreshold-1; i++ {
		if err := store.Put(ctx, "w", []byte("x")); err == nil {
			t.Fatal("Put during outage should fail")
		}
		if err := store.Healthy(); err != nil {
			t.Fatalf("healthy after %d failures, hysteresis broken: %v", i+1, err)
		}
	}
	// The retry succeeds: failure run resets.
	sim.EndOutage()
	if err := store.Put(ctx, "w", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := store.Healthy(); err != nil {
		t.Fatalf("healthy store reports %v", err)
	}

	// A sustained outage does trip it.
	sim.StartOutage()
	for i := 0; i < DefaultHealthThreshold; i++ {
		_ = store.Put(ctx, "w", []byte("x"))
	}
	if err := store.Healthy(); err == nil {
		t.Fatal("store healthy after sustained outage")
	} else if !strings.Contains(err.Error(), "consecutive failures") {
		t.Fatalf("unhelpful health error: %v", err)
	}

	// A lower threshold trips sooner.
	store.SetHealthThreshold(1)
	sim.EndOutage()
	_ = store.Put(ctx, "w", []byte("x"))
	sim.StartOutage()
	_ = store.Put(ctx, "w", []byte("x"))
	if err := store.Healthy(); err == nil {
		t.Fatal("threshold 1 should trip on first failure")
	}
}

// TestBuildInfoGauge checks the conventional build-info constant gauge.
func TestBuildInfoGauge(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg, "test-1.0", "2")
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()
	code, body := getBody(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, `ginja_build_info{`) ||
		!strings.Contains(body, `version="test-1.0"`) ||
		!strings.Contains(body, `format_version="2"`) ||
		!strings.Contains(body, `go_version="go`) {
		t.Fatalf("/metrics missing build info labels:\n%s", body)
	}
}
