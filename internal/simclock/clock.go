// Package simclock abstracts time so that every timer and timestamp in
// Ginja can be driven either by the wall clock (production) or by a
// virtual clock (deterministic simulation testing). The commit pipeline's
// Batch/Safety timeouts, upload-retry backoff and the simulated cloud's
// latency model all draw from a Clock, which lets the internal/sim driver
// explore timer-and-failure interleavings — TB expiry, TS blocking,
// mid-checkpoint crashes — in virtual time, hundreds of seeds per second,
// with no wall-clock sleeps.
package simclock

import (
	"context"
	"math"
	"time"
)

// Timer is the subset of *time.Timer Ginja uses, expressed as an
// interface so a virtual clock can supply its own implementation.
type Timer interface {
	// C returns the channel the timer fires on. For func timers the
	// channel is nil.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
	// Reset re-arms the timer for d from now, reporting whether it was
	// still pending.
	Reset(d time.Duration) bool
}

// Clock supplies current time and timers. Implementations: Real (wall
// clock) and SimClock (virtual time).
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	Until(t time.Time) time.Duration
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
	NewTimer(d time.Duration) Timer
	// NewFuncTimer returns an UNARMED Timer that calls f each time it
	// expires; Reset(d) arms it. Construct-then-arm (rather than
	// time.AfterFunc's arm-at-construction) means the caller has stored the
	// handle before f can possibly run, so a callback that re-arms its own
	// timer through that handle never observes it unset — whichever
	// goroutine fires timers, however eagerly.
	NewFuncTimer(f func()) Timer
}

// Real returns the wall-clock Clock backed by the time package.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Until(t time.Time) time.Duration        { return time.Until(t) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }

func (realClock) NewFuncTimer(f func()) Timer {
	// The time package has no unarmed constructor: arm at a deadline that
	// never comes, then disarm.
	t := time.AfterFunc(math.MaxInt64, f)
	t.Stop()
	return realTimer{t: t}
}

func (realClock) NewTimer(d time.Duration) Timer {
	return realTimer{t: time.NewTimer(d)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

// SleepCtx sleeps d on clk, returning early with ctx.Err() if the context
// is cancelled first. It is the cancellable sleep used by retry backoff
// and the simulated cloud's latency model.
func SleepCtx(ctx context.Context, clk Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := clk.NewTimer(d)
	defer t.Stop()
	_, _, err := Recv(ctx, clk, t.C())
	return err
}
