package simclock

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHandoffsAreExactInVirtualTime: a producer sleeping 10 ms between
// sends, a consumer parked on the channel and a cond-guarded counter the
// driver waits on. Every wake-up lands at its exact virtual instant, and
// time never moves while a woken goroutine is still running.
func TestHandoffsAreExactInVirtualTime(t *testing.T) {
	clk := NewSim()
	start := clk.Now()

	ch := make(chan int, 1)
	var mu sync.Mutex
	cond := NewCond(clk, &mu)
	var got []time.Duration
	workers := NewGroup(clk)
	workers.Go(func() {
		for i := 0; i < 3; i++ {
			clk.Sleep(10 * time.Millisecond)
			Send(context.Background(), clk, ch, i) //nolint:errcheck
		}
		Close(clk, ch)
	})
	workers.Go(func() {
		for {
			_, ok, _ := Recv(context.Background(), clk, ch)
			if !ok {
				return
			}
			mu.Lock()
			got = append(got, clk.Since(start))
			cond.Broadcast()
			mu.Unlock()
		}
	})
	mu.Lock()
	for len(got) < 3 {
		cond.Wait()
	}
	mu.Unlock()
	workers.Wait()
	for i, d := range got {
		if want := time.Duration(i+1) * 10 * time.Millisecond; d != want {
			t.Fatalf("receive %d at +%v, want +%v (all: %v)", i, d, want, got)
		}
	}
	if d := clk.Since(start); d != 30*time.Millisecond {
		t.Fatalf("virtual time moved %v, want exactly 30ms", d)
	}
}

// TestCancelWakesParkedBeforeTimeMoves: a goroutine parked on a channel
// with a context is woken by the context's end at the same virtual
// instant, ahead of any timer.
func TestCancelWakesParkedBeforeTimeMoves(t *testing.T) {
	clk := NewSim()
	ctx, cancel := context.WithCancel(context.Background())
	var err error
	var at time.Time
	g := NewGroup(clk)
	g.Go(func() {
		_, _, err = Recv(ctx, clk, make(chan int))
		at = clk.Now()
	})
	clk.Sleep(time.Second)
	want := clk.Now()
	cancel()
	clk.Sleep(time.Hour)
	g.Wait()
	if err != context.Canceled || !at.Equal(want) {
		t.Fatalf("woke with %v at %v, want context.Canceled at the cancel instant %v", err, at, want)
	}
}

// withOracle switches the oracle on for one test, collecting its reports.
func withOracle(t *testing.T) <-chan string {
	reports := make(chan string, 16)
	prev := SetOracle(func(msg string) {
		select {
		case reports <- msg:
		default:
		}
	})
	t.Cleanup(func() { SetOracle(prev) })
	return reports
}

// spinOnClock is the raw busy loop the oracle must catch: it reads the
// clock (so it is a member of the simulation) without ever holding a
// token.
func spinOnClock(clk *SimClock, quit *atomic.Bool) {
	for !quit.Load() {
		clk.Now()
	}
}

// TestOracleReportsMissingGrant: a raw go statement under a SimClock runs
// without a token, so the driver's sleep is about to advance time under
// it — and the oracle fails with that goroutine's stack.
func TestOracleReportsMissingGrant(t *testing.T) {
	reports := withOracle(t)
	clk := NewSim()
	clk.Now() // the driver joins the simulation
	var quit atomic.Bool
	defer quit.Store(true)
	go spinOnClock(clk, &quit)
	for members := 0; members < 2; { // the driver and the spinner
		<-time.After(time.Millisecond)
		clk.mu.Lock()
		members = len(clk.members)
		clk.mu.Unlock()
	}
	clk.Sleep(time.Second)
	select {
	case msg := <-reports:
		if !strings.Contains(msg, "missing grant") || !strings.Contains(msg, "spinOnClock") {
			t.Fatalf("report does not name the spinning goroutine:\n%s", msg)
		}
	default:
		t.Fatal("time advanced under a running goroutine without an oracle report")
	}
}

// TestOracleReportsLeakedToken: a goroutine started with Go that blocks
// on a raw channel keeps its token, so time can never move again — the
// oracle says so instead of letting the run hang.
func TestOracleReportsLeakedToken(t *testing.T) {
	reports := withOracle(t)
	clk := NewSim()
	raw := make(chan struct{})
	done := make(chan struct{})
	go func() { // the driver
		defer close(done)
		Go(clk, func() { <-raw })
		clk.Sleep(time.Second) // cannot fire while the token is held
	}()
	var msg string
	select {
	case msg = <-reports:
	case <-time.After(10 * time.Second):
		t.Fatal("no leaked-token report")
	}
	if !strings.Contains(msg, "leaked token") {
		t.Fatalf("unexpected report:\n%s", msg)
	}
	close(raw)
	<-done
}

// parkForever is the goroutine TestOracleReportsDeadlock must name.
func parkForever(clk *SimClock, never chan int) {
	Recv(context.Background(), clk, never) //nolint:errcheck // Background never ends
}

// TestOracleReportsDeadlock: a goroutine parked on a channel nobody sends
// on, a driver waiting for it and no timer — every goroutine is parked for
// good, and the step that finds nothing to do says so at once, long before
// the leaked-token watchdog would look. A wake from outside the
// simulation still resumes it.
func TestOracleReportsDeadlock(t *testing.T) {
	reports := withOracle(t)
	clk := NewSim()
	never := make(chan int, 1)
	done := make(chan struct{})
	go func() { // the driver
		defer close(done)
		g := NewGroup(clk)
		g.Go(func() { parkForever(clk, never) })
		g.Wait()
	}()
	var msg string
	select {
	case msg = <-reports:
	case <-time.After(oracleStall / 2):
		t.Fatal("no deadlock report within half the watchdog's stall")
	}
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "parkForever") {
		t.Fatalf("report does not name the parked goroutine:\n%s", msg)
	}
	Close(clk, never)
	<-done
}

func TestGoroutinesParsesHeaders(t *testing.T) {
	gs := Goroutines()
	if len(gs) == 0 || gs[0].ID != goid() || !gs[0].Running() {
		t.Fatalf("first entry %+v is not the running caller (id %d)", gs[0], goid())
	}
	block := make(chan struct{})
	defer close(block)
	go func() { <-block }()
	<-time.After(10 * time.Millisecond)
	for _, g := range Goroutines() {
		if strings.Contains(g.Stack, "TestGoroutinesParsesHeaders.func") && g.State == "chan receive" {
			return
		}
	}
	t.Fatal("parked goroutine not found in the dump")
}

// TestParkingFramesExist: the oracle tells a goroutine on its way to park
// (or out of a Go) from one running without a token by frame name, so the
// names it looks for must be the hand-off code's.
func TestParkingFramesExist(t *testing.T) {
	for _, fn := range []any{(*SimClock).await, (*Cond).Wait, (*SimClock).finish} {
		name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name() + "("
		if !parking(Goroutine{Stack: "goroutine 1 [runnable]:\n" + name + ")\n\tx.go:1"}) {
			t.Errorf("%s is not a parking frame", name)
		}
	}
	if parking(Goroutine{Stack: "goroutine 1 [runnable]:\ngithub.com/x/y.spin()\n\tx.go:1"}) {
		t.Error("a busy loop counts as parking")
	}
}
