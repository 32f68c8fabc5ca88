package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
)

func getBody(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// TestHealthzFlipsDuringOutage drives a cloudsim outage through an
// instrumented store and watches /healthz flip 200 → 503 → 200.
func TestHealthzFlipsDuringOutage(t *testing.T) {
	reg := NewRegistry()
	sim := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	store := InstrumentStore(sim, reg, "cloud")
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()
	ctx := context.Background()

	if err := store.Put(ctx, "wal/1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if code, body := getBody(t, srv, "/healthz"); code != 200 {
		t.Fatalf("healthy store: /healthz = %d\n%s", code, body)
	}

	sim.StartOutage()
	// Health has flap hysteresis: it takes DefaultHealthThreshold
	// consecutive failures to trip, so drive that many failing ops.
	for i := 0; i < DefaultHealthThreshold; i++ {
		if err := store.Put(ctx, "wal/2", []byte("x")); err == nil {
			t.Fatal("Put during outage should fail")
		}
	}
	if _, err := store.Get(ctx, "wal/1"); err == nil {
		t.Fatal("Get during outage should fail")
	}
	code, body := getBody(t, srv, "/healthz")
	if code != 503 {
		t.Fatalf("during outage: /healthz = %d, want 503\n%s", code, body)
	}
	var health struct {
		Status string `json:"status"`
		Checks []struct {
			Name  string `json:"name"`
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		} `json:"checks"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz body not JSON: %v\n%s", err, body)
	}
	if health.Status != "unhealthy" {
		t.Fatalf("status = %q, want unhealthy", health.Status)
	}
	found := false
	for _, c := range health.Checks {
		if c.Name == "store:cloud" {
			found = true
			if c.OK || !strings.Contains(c.Error, "outage") {
				t.Fatalf("store check = %+v, want failing with outage error", c)
			}
		}
	}
	if !found {
		t.Fatalf("no store:cloud check in %s", body)
	}

	sim.EndOutage()
	if err := store.Put(ctx, "wal/3", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if code, body := getBody(t, srv, "/healthz"); code != 200 {
		t.Fatalf("after outage: /healthz = %d, want 200\n%s", code, body)
	}
}

// TestMetricsAndStatusz checks the other two endpoints end to end: the
// instrumented store's series appear on /metrics and /statusz carries the
// caller-supplied status value plus the metric snapshots.
func TestMetricsAndStatusz(t *testing.T) {
	reg := NewRegistry()
	store := InstrumentStore(cloud.NewMemStore(), reg, "mem")
	ctx := context.Background()
	if err := store.Put(ctx, "obj", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(ctx, "missing"); err == nil {
		t.Fatal("want not-found")
	}

	srv := httptest.NewServer(Handler(reg, func() any {
		return map[string]int{"updates": 42}
	}))
	defer srv.Close()

	code, body := getBody(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`ginja_cloud_ops_total{backend="mem",op="put"} 1`,
		`ginja_cloud_ops_total{backend="mem",op="get"} 1`,
		// not-found is not an error
		`ginja_cloud_op_errors_total{backend="mem",op="get"} 0`,
		`ginja_cloud_bytes_total{backend="mem",direction="up"} 5`,
		`ginja_cloud_op_seconds_count{backend="mem",op="put"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = getBody(t, srv, "/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	var statusz struct {
		Status  map[string]int   `json:"status"`
		Metrics []MetricSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &statusz); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, body)
	}
	if statusz.Status["updates"] != 42 {
		t.Fatalf("status payload = %+v", statusz.Status)
	}
	if len(statusz.Metrics) == 0 {
		t.Fatal("statusz carries no metric snapshots")
	}

	if code, _ := getBody(t, srv, "/nope"); code != 404 {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

// TestPprofAndRuntimeMetrics covers the operator surface a fleet needs:
// the pprof routes on the private mux and the process-level gauges.
func TestPprofAndRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()

	code, body := getBody(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d\n%.200s", code, body)
	}
	if code, _ := getBody(t, srv, "/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Fatalf("/debug/pprof/goroutine = %d", code)
	}
	if code, _ := getBody(t, srv, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := getBody(t, srv, "/debug/pprof/symbol"); code != 200 {
		t.Fatalf("/debug/pprof/symbol = %d", code)
	}

	code, body = getBody(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, name := range []string{"ginja_goroutines", "ginja_heap_bytes"} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// The gauges are sampled live: both must be positive.
	var goroutines, heap float64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "ginja_goroutines":
			goroutines = m.Value
		case "ginja_heap_bytes":
			heap = m.Value
		}
	}
	if goroutines < 1 {
		t.Fatalf("ginja_goroutines = %v, want ≥ 1", goroutines)
	}
	if heap <= 0 {
		t.Fatalf("ginja_heap_bytes = %v, want > 0", heap)
	}
}
