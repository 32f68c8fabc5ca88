package simclock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// simEpoch is the fixed start of virtual time, so failing runs print
// identical timestamps on every machine.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// SimClock is a virtual Clock for deterministic simulation testing. Time
// never passes on its own: it advances only when the test driver (or the
// Pump) fires pending timers, and the Pump fires them only once every
// goroutine interacting with the clock has gone idle. Goroutines register
// with the clock implicitly — every clock operation (Now, After, Sleep,
// timer resets …) bumps an activity generation, and the Pump treats a
// stable generation across several scheduler yields as "all registered
// goroutines are idle".
type SimClock struct {
	mu     sync.Mutex
	now    time.Time
	timers timerQueue

	// gen is the activity generation: bumped by every clock operation the
	// system under test performs, never by Advance itself.
	gen atomic.Uint64
}

var _ Clock = (*SimClock)(nil)

// NewSim returns a virtual clock starting at a fixed epoch
// (2000-01-01T00:00:00Z).
func NewSim() *SimClock {
	return &SimClock{now: simEpoch}
}

func (c *SimClock) bump() { c.gen.Add(1) }

// Gen returns the current activity generation (see Pump).
func (c *SimClock) Gen() uint64 { return c.gen.Load() }

// Now returns the current virtual time.
func (c *SimClock) Now() time.Time {
	c.bump()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *SimClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Until returns the virtual time remaining until t.
func (c *SimClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }

// Sleep blocks the calling goroutine until virtual time advances by d.
func (c *SimClock) Sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	t := c.NewTimer(d)
	<-t.C()
	c.bump() // signal the Pump that a sleeper woke and is running again
}

// After returns a channel that receives the virtual time once it has
// advanced by d.
func (c *SimClock) After(d time.Duration) <-chan time.Time {
	return c.NewTimer(d).C()
}

// NewTimer returns a Timer that fires its channel when virtual time
// reaches now+d.
func (c *SimClock) NewTimer(d time.Duration) Timer {
	t := &heapTimer{owner: c, idx: -1, ch: make(chan time.Time, 1)}
	c.arm(t, d)
	return t
}

// NewFuncTimer returns an unarmed Timer that, once Reset, invokes f when
// virtual time reaches its deadline. f runs synchronously on the goroutine
// advancing the clock, with no clock lock held.
func (c *SimClock) NewFuncTimer(f func()) Timer {
	return &heapTimer{owner: c, idx: -1, fn: f}
}

func (c *SimClock) arm(t *heapTimer, d time.Duration) bool {
	c.bump()
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timers.set(t, c.now.Add(d))
}

func (c *SimClock) disarm(t *heapTimer) bool {
	c.bump()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timers.remove(t)
}

// PendingTimers returns the number of timers currently scheduled.
func (c *SimClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers.h)
}

// NextDeadline returns the deadline of the earliest pending timer.
func (c *SimClock) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.timers.peek()
	if t == nil {
		return time.Time{}, false
	}
	return t.deadline, true
}

// Advance moves virtual time forward by d, firing every timer whose
// deadline falls within the window in deadline order.
func (c *SimClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		t := c.popDueLocked(target)
		if t == nil {
			break
		}
		c.fireUnlockedRelock(t)
	}
	if c.now.Before(target) {
		c.now = target
	}
	c.mu.Unlock()
}

// AdvanceToNext jumps virtual time to the earliest pending deadline and
// fires that timer (plus any sharing the same deadline), reporting how
// far time moved and whether any timer was pending.
func (c *SimClock) AdvanceToNext() (time.Duration, bool) {
	c.mu.Lock()
	next := c.timers.peek()
	if next == nil {
		c.mu.Unlock()
		return 0, false
	}
	deadline := next.deadline
	moved := deadline.Sub(c.now)
	for {
		t := c.popDueLocked(deadline)
		if t == nil {
			break
		}
		c.fireUnlockedRelock(t)
	}
	c.mu.Unlock()
	return moved, true
}

// popDueLocked removes and returns the earliest timer with deadline ≤
// target, advancing now to its deadline, or returns nil.
func (c *SimClock) popDueLocked(target time.Time) *heapTimer {
	t := c.timers.peek()
	if t == nil || t.deadline.After(target) {
		return nil
	}
	c.timers.pop()
	if c.now.Before(t.deadline) {
		c.now = t.deadline
	}
	return t
}

// fireUnlockedRelock releases the clock lock, delivers the timer, and
// re-acquires the lock — callbacks are free to schedule new timers.
func (c *SimClock) fireUnlockedRelock(t *heapTimer) {
	now := c.now
	c.mu.Unlock()
	t.fire(now)
	c.mu.Lock()
}

// Pump drives virtual time from a background goroutine: whenever the
// activity generation stays stable across a few scheduler yields (all
// goroutines registered with the clock are idle — blocked in virtual
// sleeps, condition variables or channels) and timers are pending, it
// fires the earliest timer. It returns a stop function that must be
// called before the clock is abandoned.
func (c *SimClock) Pump() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := c.Gen()
		idle := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.Gosched()
			if g := c.Gen(); g != last {
				last, idle = g, 0
				continue
			}
			if idle++; idle < 3 {
				continue
			}
			idle = 0
			if _, ok := c.AdvanceToNext(); !ok {
				// No timers pending: either the run is over or the stack
				// is progressing without the clock. Back off briefly so
				// an idle pump does not burn the only CPU.
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
