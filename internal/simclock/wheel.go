package simclock

import (
	"context"
	"sync"
	"time"
)

// Wheel is a Clock that multiplexes any number of timers onto one timer of
// an inner clock: one deadline heap, one inner arming at a time, no
// goroutine of its own. A Fleet protecting thousands of databases installs
// one as every tenant's Params.Clock, so per-tenant Batch/Safety timeouts
// and tuner and trimmer ticks cost a heap entry each, not a runtime timer.
//
// Timestamps delegate to the inner clock; over a SimClock the inner timer
// fires like any other and waits on wheel timers count tokens on that
// SimClock. Func-timer callbacks run inline wherever the inner timer fires
// (the runtime's timer goroutine, or the goroutine stepping a SimClock),
// so they must be brief and must not block — Ginja's TB/TS expiries and
// tuner and trimmer ticks are.
type Wheel struct {
	inner Clock
	sim   *SimClock
	tick  Timer // inner func timer firing the due wheel timers

	mu      sync.Mutex
	timers  timerQueue
	armed   time.Time // deadline tick is armed for; zero when disarmed
	stopped bool
	firing  sync.WaitGroup
}

var _ Clock = (*Wheel)(nil)

// NewWheel returns a Wheel over inner (nil = the wall clock). Call Stop
// when the wheel is abandoned.
func NewWheel(inner Clock) *Wheel {
	if inner == nil {
		inner = Real()
	}
	w := &Wheel{inner: inner, sim: simOf(inner)}
	w.tick = inner.NewFuncTimer(w.fireDue)
	return w
}

// Stop disarms the wheel. Pending timers never fire after Stop returns;
// timers scheduled after Stop are accepted but dormant.
func (w *Wheel) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.tick.Stop()
	w.mu.Unlock()
	w.firing.Wait()
}

// Now returns the inner clock's current time.
func (w *Wheel) Now() time.Time { return w.inner.Now() }

// Since returns the inner clock's elapsed time since t.
func (w *Wheel) Since(t time.Time) time.Duration { return w.inner.Since(t) }

// Until returns the inner clock's remaining time until t.
func (w *Wheel) Until(t time.Time) time.Duration { return w.inner.Until(t) }

// Sleep blocks the calling goroutine for d on the wheel.
func (w *Wheel) Sleep(d time.Duration) {
	Recv(context.Background(), w, w.NewTimer(d).C()) //nolint:errcheck // Background never ends
}

// After returns a channel that receives the time once d has elapsed.
func (w *Wheel) After(d time.Duration) <-chan time.Time {
	return w.NewTimer(d).C()
}

// NewTimer returns a Timer multiplexed onto the wheel.
func (w *Wheel) NewTimer(d time.Duration) Timer {
	t := &heapTimer{owner: w, idx: -1, ch: make(chan time.Time, 1)}
	w.arm(t, d)
	return t
}

// NewFuncTimer returns an unarmed Timer that, once Reset, invokes f at
// its deadline. f must be brief and non-blocking.
func (w *Wheel) NewFuncTimer(f func()) Timer {
	return &heapTimer{owner: w, idx: -1, fn: f}
}

func (w *Wheel) arm(t *heapTimer, d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	deadline := w.inner.Now().Add(d)
	w.mu.Lock()
	defer w.mu.Unlock()
	active := w.timers.set(t, deadline)
	w.rearmLocked()
	return active
}

func (w *Wheel) disarm(t *heapTimer) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.timers.remove(t)
}

// rearmLocked points the inner timer at the earliest deadline if it is
// not already armed for one at least as early. A tick that finds nothing
// due (its timer was stopped) just rearms.
func (w *Wheel) rearmLocked() {
	next := w.timers.peek()
	if w.stopped || next == nil || (!w.armed.IsZero() && !next.deadline.Before(w.armed)) {
		return
	}
	w.armed = next.deadline
	w.tick.Reset(w.inner.Until(next.deadline))
}

// fireDue is the inner timer's callback: fire everything due, in deadline
// order, then rearm for the rest.
func (w *Wheel) fireDue() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.firing.Add(1)
	defer w.firing.Done()
	w.armed = time.Time{}
	for next := w.timers.peek(); next != nil && !w.stopped; next = w.timers.peek() {
		now := w.inner.Now()
		if now.Before(next.deadline) {
			break
		}
		w.timers.pop()
		w.mu.Unlock()
		next.fire(now, w.sim)
		w.mu.Lock()
	}
	w.rearmLocked()
	w.mu.Unlock()
}
