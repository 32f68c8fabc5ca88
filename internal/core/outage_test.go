package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/cloudsim"
	"github.com/ginja-dr/ginja/internal/dbevent"
	"github.com/ginja-dr/ginja/internal/minidb"
	"github.com/ginja-dr/ginja/internal/minidb/pgengine"
)

// TestCloudOutageBlocksThenResumes: during a provider outage, commits
// proceed until S pending updates accumulate, then block; when the
// provider returns, everything drains and the database continues — no
// manual intervention, no data loss.
func TestCloudOutageBlocksThenResumes(t *testing.T) {
	sim := cloudsim.New(cloud.NewMemStore(), cloudsim.Options{})
	params := fastParams()
	params.Batch = 2
	params.Safety = 8
	params.SafetyTimeout = 30 * time.Second
	params.UploadRetries = 0 // retry through the outage
	params.RetryBaseDelay = time.Millisecond

	r := newRig(t, sim, params,
		func() minidb.Engine { return pgengine.NewWithSizes(1024, 16*1024, 1024) },
		func() dbevent.Processor { return dbevent.NewPGProcessor() })
	if err := r.db.CreateTable("kv", 0); err != nil {
		t.Fatal(err)
	}
	r.put(t, "kv", "pre-outage", "v")
	if !r.g.Flush(5 * time.Second) {
		t.Fatal("flush")
	}

	sim.StartOutage()
	// Fill the Safety budget: these commit locally without blocking.
	for i := 0; i < params.Safety; i++ {
		done := make(chan struct{})
		go func(i int) {
			defer close(done)
			r.put(t, "kv", fmt.Sprintf("during-%02d", i), "v")
		}(i)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("commit %d blocked below S during outage", i)
		}
	}
	// The next commit must block.
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		r.put(t, "kv", "blocked-commit", "v")
	}()
	select {
	case <-blocked:
		t.Fatal("commit beyond S returned during the outage")
	case <-time.After(150 * time.Millisecond):
	}

	sim.EndOutage()
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("commit did not unblock after the outage ended")
	}
	if !r.g.Flush(10 * time.Second) {
		t.Fatal("queue did not drain after the outage")
	}
	if err := r.g.Err(); err != nil {
		t.Fatalf("pipeline error after outage: %v", err)
	}

	// Everything committed (including writes made during the outage) is
	// recoverable.
	db2 := r.disasterRecover(t)
	for i := 0; i < params.Safety; i++ {
		if _, err := db2.Get("kv", []byte(fmt.Sprintf("during-%02d", i))); err != nil {
			t.Fatalf("during-%02d lost: %v", i, err)
		}
	}
	if _, err := db2.Get("kv", []byte("blocked-commit")); err != nil {
		t.Fatalf("blocked-commit lost: %v", err)
	}
}
