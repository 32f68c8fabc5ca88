package core

import (
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// TestRPOWatermarkAdvancesOnAckOnly pins the durability watermark's
// semantics in virtual time: the RPO is the age of the oldest update the
// cloud has not acknowledged, so it grows as the clock advances, is
// unmoved by new enqueues, and jumps forward exactly when removeFront
// (the Unlocker's cloud ack) releases the front of the queue.
func TestRPOWatermarkAdvancesOnAckOnly(t *testing.T) {
	clk := simclock.NewSim()
	p := simQueueParams(clk, 100, 100) // B too large to fill: nothing is taken
	q := newCommitQueue(p)
	defer q.close()

	loss := obs.NewRegistry().Histogram("loss", "", nil, nil)
	q.lossHist = loss

	rpo := func() time.Duration {
		at, ok := q.oldestPendingAt()
		if !ok {
			return 0
		}
		return clk.Since(at)
	}

	if d := rpo(); d != 0 {
		t.Fatalf("empty queue RPO = %v, want 0", d)
	}

	if _, err := q.put(update{path: "f", off: 0, data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(50 * time.Millisecond)
	if d := rpo(); d != 50*time.Millisecond {
		t.Fatalf("RPO after 50ms = %v, want 50ms", d)
	}

	// A second enqueue must not move the watermark: RPO tracks the oldest
	// unacked update, not the newest write.
	if _, err := q.put(update{path: "f", off: 1, data: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(50 * time.Millisecond)
	if d := rpo(); d != 100*time.Millisecond {
		t.Fatalf("RPO after enqueue + 50ms = %v, want 100ms (enqueue moved the watermark)", d)
	}

	// Ack of the front update advances the watermark to the next pending
	// update's enqueue time — exactly at the ack, not before.
	q.removeFront(1)
	if d := rpo(); d != 50*time.Millisecond {
		t.Fatalf("RPO after first ack = %v, want 50ms", d)
	}
	if loss.Count() != 1 {
		t.Fatalf("loss-window observations after first ack = %d, want 1", loss.Count())
	}
	// The released update was 100ms old: the data-loss-window histogram
	// records the durability gap each commit actually lived through.
	if got := loss.Sum(); got != 0.1 {
		t.Fatalf("loss-window sum = %v s, want 0.1", got)
	}

	clk.Sleep(25 * time.Millisecond)
	q.removeFront(1)
	at, ok := q.oldestPendingAt()
	if ok {
		t.Fatalf("oldestPendingAt after draining = (%v, true), want none", at)
	}
	if d := rpo(); d != 0 {
		t.Fatalf("drained queue RPO = %v, want 0", d)
	}
	if loss.Count() != 2 {
		t.Fatalf("loss-window observations after drain = %d, want 2", loss.Count())
	}
}
