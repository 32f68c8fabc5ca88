package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/simclock"
)

// These tests pin the TB/TS timeout machinery to exact virtual
// timestamps: no wall-clock sleeps, no timing slop, and the
// multi-virtual-minute scenarios (10-second retry backoff, Safety
// timeouts) finish in microseconds.

// waitUntil yields the scheduler until cond holds; it fails the test
// rather than spinning forever.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never held")
}

func simQueueParams(clk simclock.Clock, b, s int) Params {
	p := testParams(b, s)
	p.Clock = clk
	return p
}

// TestSimTBFiresAtExactDeadline: the Batch timeout releases a partial
// batch exactly at TB, not a tick before.
func TestSimTBFiresAtExactDeadline(t *testing.T) {
	clk := simclock.NewSim()
	p := simQueueParams(clk, 4, 100)
	p.BatchTimeout = 100 * time.Millisecond
	q := newCommitQueue(p)
	defer q.close()

	if _, err := q.put(update{path: "f", off: 0, data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.put(update{path: "f", off: 1, data: []byte("b")}); err != nil {
		t.Fatal(err)
	}

	clk.Advance(99 * time.Millisecond)
	q.mu.Lock()
	expired := q.tbExpired
	q.mu.Unlock()
	if expired {
		t.Fatal("TB expired before the deadline")
	}

	clk.Advance(time.Millisecond) // onTB fires synchronously here
	batch, ok := q.nextBatch(nil) // must not block: partial batch released
	if !ok || len(batch) != 2 {
		t.Fatalf("nextBatch after TB = (%d items, %v), want 2 items", len(batch), ok)
	}
}

// TestSimTBRearmsPerBatch: TB restarts when unsent items remain after a
// partial take, and goes quiet when the queue has nothing unsent.
func TestSimTBRearmsPerBatch(t *testing.T) {
	clk := simclock.NewSim()
	p := simQueueParams(clk, 2, 100)
	p.BatchTimeout = 100 * time.Millisecond
	q := newCommitQueue(p)
	defer q.close()

	if clk.PendingTimers() != 0 {
		t.Fatalf("idle queue scheduled %d timers, want 0", clk.PendingTimers())
	}
	for i := 0; i < 3; i++ {
		if _, err := q.put(update{path: "f", off: int64(i), data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if batch, ok := q.nextBatch(nil); !ok || len(batch) != 2 { // full batch, no TB needed
		t.Fatalf("first batch = (%d, %v)", len(batch), ok)
	}
	// One unsent item remains: TB must be armed and release it at +100ms.
	clk.Advance(100 * time.Millisecond)
	if batch, ok := q.nextBatch(nil); !ok || len(batch) != 1 {
		t.Fatalf("TB batch = (%d, %v), want the 1 leftover item", len(batch), ok)
	}
}

// TestSimTSExpiryBlocksCommits: once the oldest unacknowledged update is
// TS old, new commits block — even far below S — and unblock the moment
// the Unlocker acknowledges, with the blocked span measured in virtual
// time.
func TestSimTSExpiryBlocksCommits(t *testing.T) {
	clk := simclock.NewSim()
	p := simQueueParams(clk, 100, 100) // B too large to ever fill: nothing is taken
	p.SafetyTimeout = 5 * time.Second
	q := newCommitQueue(p)
	defer q.close()

	if _, err := q.put(update{path: "f", off: 0, data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second) // onTS fires: queue is now in the blocked state

	done := make(chan time.Duration, 1)
	go func() {
		blocked, err := q.put(update{path: "f", off: 1, data: []byte("y")})
		if err != nil {
			done <- -1
			return
		}
		done <- blocked
	}()
	// The second put must have enqueued and parked (it cannot finish while
	// tsExpired holds).
	waitUntil(t, func() bool { return q.size() == 2 })
	select {
	case d := <-done:
		t.Fatalf("put returned (%v) although TS had expired", d)
	default:
	}

	clk.Advance(3 * time.Second) // the writer stays blocked across virtual time
	q.removeFront(1)             // cloud acknowledged the old update
	blocked := <-done
	if blocked < 3*time.Second {
		t.Fatalf("blocked duration = %v, want ≥ 3s of virtual time", blocked)
	}
	if q.blockedDuration() < 3*time.Second {
		t.Fatalf("blockedDuration() = %v, want ≥ 3s", q.blockedDuration())
	}
}

// TestSimDrainTimesOutVirtually: drain's timeout is clock-driven — a
// stuck queue makes drain return false exactly at the virtual deadline,
// with no polling.
func TestSimDrainTimesOutVirtually(t *testing.T) {
	clk := simclock.NewSim()
	q := newCommitQueue(simQueueParams(clk, 100, 100))
	defer q.close()

	if _, err := q.put(update{path: "f", off: 0, data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	res := make(chan bool, 1)
	go func() { res <- q.drain(5 * time.Second) }()
	// drain registers its timeout timer before parking; the put above
	// already armed TB and TS, so drain's makes three.
	waitUntil(t, func() bool { return clk.PendingTimers() >= 3 })
	select {
	case r := <-res:
		t.Fatalf("drain returned %v before its virtual deadline", r)
	default:
	}
	clk.Advance(5 * time.Second)
	if r := <-res; r {
		t.Fatal("drain reported success on a stuck queue")
	}

	// After acknowledgement the same queue drains instantly.
	q.removeFront(1)
	if !q.drain(time.Second) {
		t.Fatal("drain failed on an empty queue")
	}
}

// TestSimPipelineFatalAfterRetryBudget: with UploadRetries=3 and a
// 10-second retry backoff, the pipeline must walk the full
// 10s+10s+fail schedule (jitter may halve each sleep) and then go
// fatal: Stats carry the error and further submits are refused. Under
// the simulation clock the whole walk takes microseconds.
func TestSimPipelineFatalAfterRetryBudget(t *testing.T) {
	clk := simclock.NewSim()
	stopPump := clk.Pump()
	defer stopPump()

	p := testParams(1, 2)
	p.Clock = clk
	p.UploadRetries = 3
	p.RetryBaseDelay = 10 * time.Second
	params, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	store := &flakyStore{ObjectStore: nil, failFirst: 1 << 30} // every Put fails
	pipe := newPipeline(NewCloudView(), plainIO(store, params), params)
	start := clk.Now()
	pipe.start(0)
	defer pipe.drainAndStop(time.Second)

	if _, err := pipe.submit("pg_xlog/0001", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// fail() closes the queue, which ends the drain at the instant the
	// retry budget runs out.
	pipe.q.drain(time.Hour)
	if pipe.lastErr() == nil {
		t.Fatal("pipeline still healthy after the retry budget")
	}
	// Two 10-second backoffs, each jitter-scaled into [0.5, 1.0)×: at
	// least 10 virtual seconds, under 20.
	if elapsed := clk.Since(start); elapsed < 10*time.Second {
		t.Fatalf("fatal after %v of virtual time, want ≥ 10s (two jittered 10s backoffs)", elapsed)
	}
	if _, err := pipe.submit("pg_xlog/0001", 8192, []byte("y")); err == nil {
		t.Fatal("submit after fatal pipeline error returned nil")
	}
}
