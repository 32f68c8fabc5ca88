package simclock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWheelFiresInDeadlineOrderOnSimClock(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	defer w.Stop()

	var mu sync.Mutex
	var order []int
	record := func(i int) func() {
		return func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	afterFunc(w, 30*time.Millisecond, record(3))
	afterFunc(w, 10*time.Millisecond, record(1))
	afterFunc(w, 20*time.Millisecond, record(2))

	sim.Sleep(31 * time.Millisecond) // past the last deadline
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired %v by +31ms, want [1 2 3]", order)
	}
}

func TestWheelTimerChannelAndStop(t *testing.T) {
	w := NewWheel(Real())
	defer w.Stop()

	tm := w.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("wheel timer never fired on the real clock")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired timer reported active")
	}

	// A stopped timer must not fire.
	var fired atomic.Bool
	tm2 := afterFunc(w, 30*time.Millisecond, func() { fired.Store(true) })
	if !tm2.Stop() {
		t.Fatal("Stop on a pending timer reported inactive")
	}
	time.Sleep(60 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired anyway")
	}

	// Reset re-arms to an earlier deadline than the one the wheel is
	// currently sleeping toward.
	var early atomic.Bool
	afterFunc(w, 10*time.Second, func() {}) // arms a far-future inner timer
	tm3 := afterFunc(w, 5*time.Second, func() { early.Store(true) })
	tm3.Reset(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for !early.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Reset to an earlier deadline did not fire")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWheelSleepAndAfter(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	defer w.Stop()

	start := w.Now()
	w.Sleep(42 * time.Millisecond)
	if got := w.Since(start); got != 42*time.Millisecond {
		t.Fatalf("Sleep advanced virtual time by %v, want exactly 42ms", got)
	}

	start = w.Now()
	Recv(context.Background(), w, w.After(7*time.Millisecond)) //nolint:errcheck
	if got := w.Since(start); got != 7*time.Millisecond {
		t.Fatalf("After fired at +%v, want exactly +7ms", got)
	}
}

func TestWheelManyTimersOneGoroutine(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	defer w.Stop()

	const n = 1000
	var fired atomic.Int32
	for i := 0; i < n; i++ {
		afterFunc(w, time.Duration(i%17+1)*time.Millisecond, func() { fired.Add(1) })
	}
	if got := len(w.timers.h); got != n {
		t.Fatalf("%d timers pending, want %d", got, n)
	}
	sim.Sleep(18 * time.Millisecond)
	if fired.Load() != n {
		t.Fatalf("only %d/%d timers fired", fired.Load(), n)
	}
}
