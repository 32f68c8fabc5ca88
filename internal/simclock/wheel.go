package simclock

import (
	"sync"
	"time"
)

// Wheel is a Clock that multiplexes any number of timers onto a single
// goroutine: one deadline heap, one arming of the inner clock at a time.
// It exists for fleet deployments — one process protecting thousands of
// databases — where per-instance Batch/Safety timeouts, tuner ticks and
// retention-trimmer ticks would otherwise each arm their own runtime
// timer (and, historically, their own goroutine). A Fleet installs one
// Wheel as every tenant's Params.Clock, so the whole fleet's timer load
// is a heap and a goroutine, independent of tenant count.
//
// Timestamps (Now/Since/Until) delegate to the inner clock, so a Wheel
// over a SimClock keeps virtual-time determinism: the wheel's single
// pending inner timer is fired by the SimClock driver like any other.
//
// Func-timer callbacks run inline on the wheel goroutine (the same
// contract as SimClock's advancing goroutine): they must be brief and
// must not block, or they delay every other timer in the process. All of
// Ginja's internal callbacks (TB/TS expiry, tuner ticks, trimmer ticks)
// follow that rule.
type Wheel struct {
	inner Clock

	mu     sync.Mutex
	timers timerQueue

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	stopOnce sync.Once
}

var _ Clock = (*Wheel)(nil)

// NewWheel returns a running Wheel over inner (nil = the wall clock).
// Call Stop when the wheel is abandoned.
func NewWheel(inner Clock) *Wheel {
	if inner == nil {
		inner = Real()
	}
	w := &Wheel{
		inner: inner,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	w.wg.Add(1)
	go w.loop()
	return w
}

// Stop terminates the wheel goroutine. Pending timers never fire after
// Stop returns; timers scheduled after Stop are accepted but dormant.
func (w *Wheel) Stop() {
	w.stopOnce.Do(func() { close(w.done) })
	w.wg.Wait()
}

// Now returns the inner clock's current time.
func (w *Wheel) Now() time.Time { return w.inner.Now() }

// Since returns the inner clock's elapsed time since t.
func (w *Wheel) Since(t time.Time) time.Duration { return w.inner.Since(t) }

// Until returns the inner clock's remaining time until t.
func (w *Wheel) Until(t time.Time) time.Duration { return w.inner.Until(t) }

// Sleep blocks the calling goroutine for d on the wheel.
func (w *Wheel) Sleep(d time.Duration) {
	if d <= 0 {
		w.inner.Sleep(d)
		return
	}
	<-w.After(d)
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

// NewFuncTimer returns an unarmed Timer that, once Reset, invokes f on
// the wheel goroutine at its deadline. f must be brief and non-blocking.
func (w *Wheel) NewFuncTimer(f func()) Timer {
	return &heapTimer{owner: w, idx: -1, fn: f}
}

// PendingTimers returns the number of timers currently scheduled (tests).
func (w *Wheel) PendingTimers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.timers.h)
}

func (w *Wheel) arm(t *heapTimer, d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	deadline := w.inner.Now().Add(d)
	w.mu.Lock()
	active := w.timers.set(t, deadline)
	w.mu.Unlock()
	w.poke()
	return active
}

func (w *Wheel) disarm(t *heapTimer) bool {
	w.mu.Lock()
	active := w.timers.remove(t)
	w.mu.Unlock()
	if active {
		w.poke()
	}
	return active
}

// poke nudges the wheel goroutine to re-examine the heap (the earliest
// deadline may have changed). Non-blocking: one pending nudge is enough.
func (w *Wheel) poke() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *Wheel) loop() {
	defer w.wg.Done()
	for {
		// Fire everything due, then find how long until the next deadline.
		var arm Timer
		var armCh <-chan time.Time
		w.mu.Lock()
		for next := w.timers.peek(); next != nil; next = w.timers.peek() {
			d := w.inner.Until(next.deadline)
			if d > 0 {
				arm = w.inner.NewTimer(d)
				armCh = arm.C()
				break
			}
			w.timers.pop()
			w.mu.Unlock()
			next.fire(w.inner.Now())
			w.mu.Lock()
		}
		w.mu.Unlock()

		if armCh == nil {
			select {
			case <-w.wake:
			case <-w.done:
				return
			}
			continue
		}
		select {
		case <-armCh:
		case <-w.wake:
			arm.Stop()
		case <-w.done:
			arm.Stop()
			return
		}
	}
}
