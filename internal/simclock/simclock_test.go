package simclock

import (
	"context"
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
// clock firing timers as eagerly as it can (the wall clock's runtime
// timer, on a Reset(0)) can never run the callback against an unset
// handle. With arm-at-construction (the old AfterFunc) this is a nil
// dereference or a -race report on `tick`.
func TestFuncTimerHandleStoredBeforeFirstFire(t *testing.T) {
	clk := Real()
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
	for deadline := time.Now().Add(5 * time.Second); fired.Load() < 200; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fired %d ticks, want every one of the 200 timers at least once", fired.Load())
		}
	}
}

// TestSimClockAdvanceFiresInDeadlineOrder: a driver's sleep fires every
// timer due within it, in deadline order, before the driver resumes.
func TestSimClockAdvanceFiresInDeadlineOrder(t *testing.T) {
	clk := NewSim()
	var order []string
	afterFunc(clk, 30*time.Millisecond, func() { order = append(order, "c") })
	afterFunc(clk, 10*time.Millisecond, func() { order = append(order, "a") })
	afterFunc(clk, 20*time.Millisecond, func() { order = append(order, "b") })

	clk.Sleep(15 * time.Millisecond)
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("after 15ms, fired %v", order)
	}

	clk.Sleep(50 * time.Millisecond)
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
	clk.Sleep(time.Second) // armed last, so it fires last
	if len(order) != 5 {
		t.Fatalf("fired %v, want all 5", order)
	}
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
	clk.Sleep(2 * time.Second)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(time.Second)
	clk.Sleep(time.Second)
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
	clk.Sleep(10 * time.Second)
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
	clk.Sleep(time.Minute)
	select {
	case ts := <-ch:
		if want := simEpoch.Add(time.Minute); !ts.Equal(want) {
			t.Fatalf("After delivered %v, want %v", ts, want)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestSimClockSleepersWakeAtTheirDeadlines(t *testing.T) {
	clk := NewSim()
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

// TestSleepCtxHonoursCancellation: a cancelled SleepCtx returns the
// context's error at the instant of the cancel, and its timer goes.
func TestSleepCtxHonoursCancellation(t *testing.T) {
	clk := NewSim()
	start := clk.Now()
	ctx, cancel := context.WithCancel(context.Background())
	var err error
	g := NewGroup(clk)
	g.Go(func() { err = SleepCtx(ctx, clk, time.Hour) })
	clk.Sleep(time.Second)
	cancel()
	g.Wait()
	if err != context.Canceled {
		t.Fatalf("SleepCtx returned %v, want context.Canceled", err)
	}
	if d := clk.Since(start); d != time.Second {
		t.Fatalf("SleepCtx returned at +%v, want at the cancel instant +1s", d)
	}
	if n := len(clk.timers.h); n != 0 {
		t.Fatalf("%d timers leaked after cancelled SleepCtx", n)
	}
}

func TestSleepCtxRealClockZeroDuration(t *testing.T) {
	if err := SleepCtx(context.Background(), Real(), 0); err != nil {
		t.Fatal(err)
	}
}
