package s3http

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/ginja-dr/ginja/internal/cloud"
)

func newPair(t *testing.T) (*Client, *cloud.MemStore) {
	t.Helper()
	store := cloud.NewMemStore()
	srv := httptest.NewServer(NewHandler(store))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), store
}

func TestClientRoundTrip(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	if err := c.Put(ctx, "WAL/0_seg_0", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get(ctx, "WAL/0_seg_0")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("Get = %q", got)
	}
}

func TestClientNotFound(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	if _, err := c.Get(ctx, "missing"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if err := c.Delete(ctx, "missing"); !errors.Is(err, cloud.ErrNotFound) {
		t.Fatalf("Delete = %v, want ErrNotFound", err)
	}
}

func TestClientListPrefix(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	for _, n := range []string{"WAL/1_a_0", "WAL/2_b_8192", "DB/0_dump_77"} {
		if err := c.Put(ctx, n, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := c.List(ctx, "WAL/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("List(WAL/) = %v, want 2 objects", infos)
	}
	all, err := c.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("List(\"\") = %d objects, want 3", len(all))
	}
}

func TestClientDelete(t *testing.T) {
	c, store := newPair(t)
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("store still holds %d objects", store.Len())
	}
}

func TestClientSpecialCharacterNames(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	// Ginja names embed underscores and numbers; also exercise spaces and
	// percent signs, which must survive the URL round trip.
	names := []string{
		"WAL/42_000000010000000000000007_16384",
		"DB/9_checkpoint_1048576",
		"odd name/with space_0",
		"pct%25sign/x_1",
	}
	for _, n := range names {
		if err := c.Put(ctx, n, []byte(n)); err != nil {
			t.Fatalf("Put(%q): %v", n, err)
		}
		got, err := c.Get(ctx, n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if string(got) != n {
			t.Fatalf("Get(%q) = %q", n, got)
		}
	}
}

func TestClientEmptyPayload(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	if err := c.Put(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Get = %d bytes, want 0", len(got))
	}
}

func TestClientLargeObject(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	payload := make([]byte, 5<<20) // a typical aggregated WAL object
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := c.Put(ctx, "big", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("size = %d, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestClientConcurrentUploads(t *testing.T) {
	c, store := newPair(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("WAL/%d_%d_0", g, i)
				if err := c.Put(ctx, name, []byte(name)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if store.Len() != 120 {
		t.Fatalf("store holds %d objects, want 120", store.Len())
	}
}

func TestServerRejectsUnknownRoutes(t *testing.T) {
	srv := httptest.NewServer(NewHandler(cloud.NewMemStore()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestServerRejectsWrongMethod(t *testing.T) {
	srv := httptest.NewServer(NewHandler(cloud.NewMemStore()))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/o/key", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/list", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("list status = %d, want 405", resp.StatusCode)
	}
}

func TestServerRejectsOversizedObject(t *testing.T) {
	srv := httptest.NewServer(NewHandler(cloud.NewMemStore()))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/o/huge", strings.NewReader(strings.Repeat("x", maxObjectBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestClientSurfacesServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	err := c.Put(context.Background(), "k", []byte("v"))
	var se *statusError
	if !errors.As(err, &se) || se.status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want statusError 500", err)
	}
}

func TestBearerTokenAuth(t *testing.T) {
	store := cloud.NewMemStore()
	srv := httptest.NewServer(NewHandlerWithToken(store, "sesame"))
	defer srv.Close()
	ctx := context.Background()

	good := NewClientWithToken(srv.URL, "sesame", srv.Client())
	if err := good.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("authorized Put: %v", err)
	}
	if _, err := good.Get(ctx, "k"); err != nil {
		t.Fatalf("authorized Get: %v", err)
	}
	if _, err := good.List(ctx, ""); err != nil {
		t.Fatalf("authorized List: %v", err)
	}

	for name, bad := range map[string]*Client{
		"no token":    NewClient(srv.URL, srv.Client()),
		"wrong token": NewClientWithToken(srv.URL, "guess", srv.Client()),
	} {
		err := bad.Put(ctx, "k2", []byte("v"))
		var se *statusError
		if !errors.As(err, &se) || se.status != http.StatusUnauthorized {
			t.Fatalf("%s: Put = %v, want 401", name, err)
		}
	}
	// Token on the server, none needed when unset.
	open := httptest.NewServer(NewHandlerWithToken(store, ""))
	defer open.Close()
	if err := NewClient(open.URL, open.Client()).Put(ctx, "k3", []byte("v")); err != nil {
		t.Fatalf("open server rejected: %v", err)
	}
}

// keepStore keeps the slice a PUT hands it, so that a test sees what the
// handler allocated and nothing the store adds.
type keepStore struct {
	cloud.ObjectStore
	puts map[string][]byte
}

func (s *keepStore) Put(_ context.Context, name string, data []byte) error {
	s.puts[name] = data
	return nil
}

// bodyReader is a PUT body that counts its reads.
type bodyReader struct {
	r     io.Reader
	reads int
}

func (b *bodyReader) Read(p []byte) (int, error) {
	b.reads++
	return b.r.Read(p)
}

// putBody serves one PUT of body, declared as length bytes (-1: unknown,
// as a chunked request), and returns its status.
func putBody(t *testing.T, h http.Handler, key string, body io.Reader, length int64) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, "/o/"+key, body)
	req.ContentLength = length
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestServerPutBodyLength: a declared length over the bound is refused
// before the body is read, a body shorter than its declared length is a
// bad request and stores nothing, and a body of unknown length is read up
// to the bound.
func TestServerPutBodyLength(t *testing.T) {
	store := &keepStore{puts: map[string][]byte{}}
	h := NewHandler(store)
	huge := &bodyReader{r: strings.NewReader("x")}
	if code := putBody(t, h, "huge", huge, maxObjectBytes+1); code != http.StatusRequestEntityTooLarge || huge.reads != 0 {
		t.Fatalf("oversized Content-Length: status %d after %d reads, want 413 after none", code, huge.reads)
	}
	if code := putBody(t, h, "short", strings.NewReader("half"), 8); code != http.StatusBadRequest {
		t.Fatalf("short body: status %d, want 400", code)
	}
	if code := putBody(t, h, "chunked", strings.NewReader("unknown length"), -1); code != http.StatusOK {
		t.Fatalf("chunked body: status %d, want 200", code)
	}
	over := io.LimitReader(zeros{}, maxObjectBytes+1)
	if code := putBody(t, h, "chunked-huge", over, -1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked body: status %d, want 413", code)
	}
	if len(store.puts) != 1 || string(store.puts["chunked"]) != "unknown length" {
		t.Fatalf("stored %d objects, want only the chunked one intact", len(store.puts))
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestServerPutAllocatesItsBody: a PUT of known length reads its body into
// one buffer of that size, not into a buffer grown by doubling.
func TestServerPutAllocatesItsBody(t *testing.T) {
	const size = 4 << 20
	store := &keepStore{puts: map[string][]byte{}}
	h := NewHandler(store)
	payload := bytes.Repeat([]byte{'p'}, size)
	putBody(t, h, "warm", bytes.NewReader(payload[:1]), 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := putBody(t, h, "obj", bytes.NewReader(payload), size)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK || !bytes.Equal(store.puts["obj"], payload) {
		t.Fatalf("PUT: status %d, stored intact %v", code, bytes.Equal(store.puts["obj"], payload))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size+64<<10 {
		t.Fatalf("a %d-byte PUT allocated %d bytes, want at most %d", size, alloc, size+64<<10)
	}
}
