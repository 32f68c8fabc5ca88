package core_test

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/dbevent"
)

// syncBuffer is a bytes.Buffer safe to read while Ginja's background
// goroutines are still logging into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestStructuredLoggingEmitsEvents(t *testing.T) {
	var buf syncBuffer
	params := fastParams()
	params.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))

	r := newRig(t, cloud.NewMemStore(), params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "k", "v")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
	if err := r.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !r.g.SyncCheckpoints(5 * time.Second) {
		t.Fatalf("checkpoint queue did not settle (err %v)", r.g.Err())
	}
	// The unlocker logs "batch durable" just after it releases the batch,
	// so it can trail Flush; Close waits for the unlocker to exit.
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{
		"ginja boot complete", "db object uploaded", "garbage-collected WAL objects",
		// per-batch trace spans (Debug level), correlated by batch=N
		"batch aggregated", "wal object uploaded", "batch durable", "batch=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

func TestNilLoggerIsSilentAndSafe(t *testing.T) {
	params := fastParams() // Logger nil
	r := pgRig(t, params)
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "k", "v")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}
}
