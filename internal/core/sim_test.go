package core

import (
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/simclock"
)

// These tests pin the TB/TS timeout machinery to exact virtual
// timestamps: no wall-clock sleeps, no timing slop, and the
// multi-virtual-minute scenarios (10-second retry backoff, Safety
// timeouts) finish in microseconds. The test goroutine is the clock's
// driver: a clk.Sleep(d) fires every timer due within d, in deadline
// order and equal deadlines in arming order, before it returns, and a
// clk.Sleep(0) returns once every goroutine it started has parked.

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

	clk.Sleep(99 * time.Millisecond)
	q.mu.Lock()
	expired := q.tbExpired
	q.mu.Unlock()
	if expired {
		t.Fatal("TB expired before the deadline")
	}

	clk.Sleep(time.Millisecond)   // onTB, armed first, fires first
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

	if q.tbTimer.Stop() || q.tsTimer.Stop() {
		t.Fatal("idle queue armed a timer")
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
	clk.Sleep(100 * time.Millisecond)
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
	clk.Sleep(5 * time.Second) // onTS fires: queue is now in the blocked state

	var blocked time.Duration
	var putErr error
	returned := false
	writer := simclock.NewGroup(clk)
	writer.Go(func() {
		blocked, putErr = q.put(update{path: "f", off: 1, data: []byte("y")})
		returned = true
	})
	// The second put must have enqueued and parked (it cannot finish while
	// tsExpired holds).
	clk.Sleep(0)
	if q.size() != 2 || returned {
		t.Fatalf("queue holds %d updates, put returned %v: want 2 and a parked put", q.size(), returned)
	}

	clk.Sleep(3 * time.Second) // the writer stays blocked across virtual time
	q.removeFront(1)           // cloud acknowledged the old update
	writer.Wait()
	if putErr != nil {
		t.Fatal(putErr)
	}
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
	drained, returned := true, false
	drainer := simclock.NewGroup(clk)
	drainer.Go(func() {
		drained = q.drain(5 * time.Second)
		returned = true
	})
	// drain arms its timeout timer, then parks.
	clk.Sleep(0)
	if returned {
		t.Fatalf("drain returned %v before its virtual deadline", drained)
	}
	clk.Sleep(5 * time.Second) // drain's timer was armed first: it fires first
	drainer.Wait()
	if drained {
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
