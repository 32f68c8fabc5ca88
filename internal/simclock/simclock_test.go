package simclock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// afterFunc is construct-then-arm in one step, for tests whose callbacks
// never touch their own handle.
func afterFunc(clk Clock, d time.Duration, f func()) Timer {
	t := clk.NewFuncTimer(f)
	t.Reset(d)
	return t
}

// TestFuncTimerHandleStoredBeforeFirstFire pins the construct-then-arm
// contract: a self-rearming ticker stores its handle before arming, so a
// driver firing timers as eagerly as it can (another goroutine spinning
// AdvanceToNext, as the Pump does) can never run the callback against an
// unset handle. With arm-at-construction (the old AfterFunc) this is a nil
// dereference or a -race report on `tick`.
func TestFuncTimerHandleStoredBeforeFirstFire(t *testing.T) {
	clk := NewSim()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.AdvanceToNext()
			}
		}
	}()
	var fired atomic.Int64
	for i := 0; i < 200; i++ {
		var tick Timer
		tick = clk.NewFuncTimer(func() {
			if fired.Add(1)%3 != 0 {
				tick.Reset(0)
			}
		})
		if tick.Stop() {
			t.Fatal("a freshly constructed func timer must be unarmed")
		}
		tick.Reset(0)
	}
	close(stop)
	wg.Wait()
	for {
		if _, ok := clk.AdvanceToNext(); !ok {
			break
		}
	}
	if fired.Load() < 200 {
		t.Fatalf("fired %d ticks, want every one of the 200 timers at least once", fired.Load())
	}
}

func TestSimClockAdvanceFiresInDeadlineOrder(t *testing.T) {
	clk := NewSim()
	var mu sync.Mutex
	var order []string
	afterFunc(clk, 30*time.Millisecond, func() { mu.Lock(); order = append(order, "c"); mu.Unlock() })
	afterFunc(clk, 10*time.Millisecond, func() { mu.Lock(); order = append(order, "a"); mu.Unlock() })
	afterFunc(clk, 20*time.Millisecond, func() { mu.Lock(); order = append(order, "b"); mu.Unlock() })

	clk.Advance(15 * time.Millisecond)
	mu.Lock()
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("after 15ms, fired %v", order)
	}
	mu.Unlock()

	clk.Advance(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != "b" || order[2] != "c" {
		t.Fatalf("fired %v", order)
	}
	if got := clk.Since(simEpoch); got != 65*time.Millisecond {
		t.Fatalf("virtual now = %v, want 65ms", got)
	}
}

func TestSimClockSameDeadlineFiresInCreationOrder(t *testing.T) {
	clk := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		afterFunc(clk, time.Second, func() { order = append(order, i) })
	}
	clk.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order %v", order)
		}
	}
}

func TestSimClockTimerStopAndReset(t *testing.T) {
	clk := NewSim()
	fired := 0
	tm := afterFunc(clk, time.Second, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	clk.Advance(2 * time.Second)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(time.Second)
	clk.Advance(time.Second)
	if fired != 1 {
		t.Fatalf("reset timer fired %d times", fired)
	}
	// Reset from inside the callback (how the TB timer re-arms itself).
	var rearm Timer
	count := 0
	rearm = clk.NewFuncTimer(func() {
		count++
		if count < 3 {
			rearm.Reset(time.Second)
		}
	})
	rearm.Reset(time.Second)
	clk.Advance(10 * time.Second)
	if count != 3 {
		t.Fatalf("self-rearming timer fired %d times, want 3", count)
	}
}

func TestSimClockAfterAndNewTimer(t *testing.T) {
	clk := NewSim()
	ch := clk.After(time.Minute)
	select {
	case <-ch:
		t.Fatal("After fired before any advance")
	default:
	}
	clk.Advance(time.Minute)
	select {
	case ts := <-ch:
		if want := simEpoch.Add(time.Minute); !ts.Equal(want) {
			t.Fatalf("After delivered %v, want %v", ts, want)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestSimClockAdvanceToNext(t *testing.T) {
	clk := NewSim()
	if _, ok := clk.AdvanceToNext(); ok {
		t.Fatal("AdvanceToNext with no timers reported ok")
	}
	fired := false
	afterFunc(clk, 42*time.Second, func() { fired = true })
	moved, ok := clk.AdvanceToNext()
	if !ok || moved != 42*time.Second || !fired {
		t.Fatalf("AdvanceToNext: moved=%v ok=%v fired=%v", moved, ok, fired)
	}
	if clk.PendingTimers() != 0 {
		t.Fatal("timer still pending after firing")
	}
}

func TestSimClockSleepWithPump(t *testing.T) {
	clk := NewSim()
	stop := clk.Pump()
	defer stop()
	start := clk.Now()
	var woke [3]time.Duration
	sleepers := NewGroup(clk)
	for i := range woke {
		sleepers.Go(func() {
			clk.Sleep(time.Duration(i+1) * time.Hour)
			woke[i] = clk.Since(start)
		})
	}
	sleepers.Wait()
	for i, d := range woke {
		if want := time.Duration(i+1) * time.Hour; d != want {
			t.Fatalf("sleeper %d woke at +%v, want exactly +%v", i, d, want)
		}
	}
	if got := clk.Since(start); got != 3*time.Hour {
		t.Fatalf("virtual time advanced %v, want exactly 3h", got)
	}
}

func TestSleepCtxHonoursCancellation(t *testing.T) {
	clk := NewSim()
	ctx, cancel := context.WithCancel(context.Background())
	var ret atomic.Value
	done := make(chan struct{})
	go func() {
		defer close(done)
		ret.Store(SleepCtx(ctx, clk, time.Hour) == context.Canceled)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SleepCtx ignored context cancellation")
	}
	if ret.Load() != true {
		t.Fatal("SleepCtx did not return the context error")
	}
	// And the timer must not linger.
	if clk.PendingTimers() != 0 {
		t.Fatalf("%d timers leaked after cancelled SleepCtx", clk.PendingTimers())
	}
}

func TestSleepCtxRealClockZeroDuration(t *testing.T) {
	if err := SleepCtx(context.Background(), Real(), 0); err != nil {
		t.Fatal(err)
	}
}
