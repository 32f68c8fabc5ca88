package core

import (
	"context"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/simclock"
)

func newTestSched(uploadSlots, fetchSlots, tenantCap int, aging time.Duration) *fleetScheduler {
	return newFleetScheduler(simclock.Real(), uploadSlots, fetchSlots, tenantCap, aging, nil)
}

// mustAcquire acquires with a generous timeout and fails the test on error.
func mustAcquire(t *testing.T, s *fleetScheduler, tenant string, class opClass, deadline time.Time) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.acquire(ctx, tenant, class, deadline); err != nil {
		t.Fatalf("acquire(%s, %v): %v", tenant, class, err)
	}
}

// tryAcquire runs acquire in a goroutine and returns a channel that
// yields its error (nil on grant).
func tryAcquire(s *fleetScheduler, ctx context.Context, tenant string, class opClass, deadline time.Time) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- s.acquire(ctx, tenant, class, deadline) }()
	return ch
}

func TestFleetSchedulerTenantCapBoundsBulk(t *testing.T) {
	s := newTestSched(8, 8, 2, -1)
	// Antagonist takes its cap of bulk slots.
	mustAcquire(t, s, "evil", classBulk, time.Time{})
	mustAcquire(t, s, "evil", classBulk, time.Time{})

	// Third bulk op from the same tenant must queue even though the
	// pool has 6 free slots.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := tryAcquire(s, ctx, "evil", classBulk, time.Time{})
	select {
	case err := <-blocked:
		t.Fatalf("over-cap bulk acquire should have blocked, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// A different tenant sails through.
	mustAcquire(t, s, "good", classBulk, time.Time{})
	// Safety from the capped tenant is exempt from the cap.
	mustAcquire(t, s, "evil", classSafety, time.Now().Add(time.Minute))

	// Releasing one of the antagonist's slots admits its queued op.
	s.release("evil", classBulk)
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("queued bulk acquire: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued bulk acquire never granted after release")
	}
}

func TestFleetSchedulerSafetyBeatsQueuedBulk(t *testing.T) {
	s := newTestSched(1, 1, 4, -1)
	mustAcquire(t, s, "evil", classBulk, time.Time{}) // pool full

	ctx := context.Background()
	bulk := tryAcquire(s, ctx, "evil", classBulk, time.Time{})
	time.Sleep(20 * time.Millisecond) // bulk is queued first
	safety := tryAcquire(s, ctx, "good", classSafety, time.Now().Add(time.Minute))
	time.Sleep(20 * time.Millisecond)

	s.release("evil", classBulk)
	select {
	case err := <-safety:
		if err != nil {
			t.Fatalf("safety acquire: %v", err)
		}
	case <-bulk:
		t.Fatal("bulk dispatched ahead of queued safety")
	case <-time.After(2 * time.Second):
		t.Fatal("no grant after release")
	}
	s.release("good", classSafety)
	if err := <-bulk; err != nil {
		t.Fatalf("bulk acquire: %v", err)
	}
}

func TestFleetSchedulerSafetyEDF(t *testing.T) {
	s := newTestSched(1, 1, 4, -1)
	mustAcquire(t, s, "t0", classSafety, time.Now().Add(time.Minute)) // pool full

	ctx := context.Background()
	late := tryAcquire(s, ctx, "t1", classSafety, time.Now().Add(time.Hour))
	time.Sleep(20 * time.Millisecond)
	soon := tryAcquire(s, ctx, "t2", classSafety, time.Now().Add(time.Second))
	time.Sleep(20 * time.Millisecond)

	s.release("t0", classSafety)
	select {
	case err := <-soon:
		if err != nil {
			t.Fatalf("EDF acquire: %v", err)
		}
	case <-late:
		t.Fatal("later-deadline safety dispatched before earlier-deadline one")
	case <-time.After(2 * time.Second):
		t.Fatal("no grant after release")
	}
	s.release("t2", classSafety)
	<-late
}

func TestFleetSchedulerBulkAgingBreaksThrough(t *testing.T) {
	s := newTestSched(1, 1, 4, 30*time.Millisecond)
	mustAcquire(t, s, "t0", classBulk, time.Time{}) // pool full

	ctx := context.Background()
	bulk := tryAcquire(s, ctx, "ckpt", classBulk, time.Time{})
	time.Sleep(60 * time.Millisecond) // let the bulk waiter age past the threshold
	safety := tryAcquire(s, ctx, "hot", classSafety, time.Now().Add(time.Minute))
	time.Sleep(20 * time.Millisecond)

	s.release("t0", classBulk)
	select {
	case err := <-bulk:
		if err != nil {
			t.Fatalf("aged bulk acquire: %v", err)
		}
	case <-safety:
		t.Fatal("safety dispatched ahead of an aged bulk waiter")
	case <-time.After(2 * time.Second):
		t.Fatal("no grant after release")
	}
	s.release("ckpt", classBulk)
	<-safety
}

func TestFleetSchedulerCancelReleasesWaiter(t *testing.T) {
	s := newTestSched(1, 1, 4, -1)
	mustAcquire(t, s, "t0", classBulk, time.Time{})

	ctx, cancel := context.WithCancel(context.Background())
	blocked := tryAcquire(s, ctx, "t1", classBulk, time.Time{})
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-blocked; err == nil {
		t.Fatal("cancelled acquire returned nil")
	}

	// The cancelled waiter must not absorb the next grant.
	s.release("t0", classBulk)
	mustAcquire(t, s, "t2", classBulk, time.Time{})
}

func TestFleetSchedulerStarvationCounter(t *testing.T) {
	s := newTestSched(1, 1, 4, -1)
	mustAcquire(t, s, "t0", classBulk, time.Time{})

	// Safety op whose deadline has already passed when it finally runs.
	ctx := context.Background()
	starved := tryAcquire(s, ctx, "t1", classSafety, time.Now().Add(10*time.Millisecond))
	time.Sleep(50 * time.Millisecond)
	s.release("t0", classBulk)
	if err := <-starved; err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if got := s.starvationCount(); got != 1 {
		t.Fatalf("starvationCount = %d, want 1", got)
	}

	// An on-time safety op does not count.
	s.release("t1", classSafety)
	mustAcquire(t, s, "t2", classSafety, time.Now().Add(time.Minute))
	if got := s.starvationCount(); got != 1 {
		t.Fatalf("starvationCount after on-time op = %d, want 1", got)
	}
}

func TestFleetSchedulerFetchPoolIndependent(t *testing.T) {
	s := newTestSched(1, 2, 4, -1)
	mustAcquire(t, s, "t0", classBulk, time.Time{}) // upload pool full
	// Fetches still flow: separate pool.
	mustAcquire(t, s, "t1", classFetch, time.Time{})
	mustAcquire(t, s, "t2", classFetch, time.Time{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := tryAcquire(s, ctx, "t3", classFetch, time.Time{})
	select {
	case err := <-blocked:
		t.Fatalf("fetch beyond pool size should block, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.release("t1", classFetch)
	if err := <-blocked; err != nil {
		t.Fatalf("queued fetch: %v", err)
	}
}
