package simclock

import (
	"context"
	"sync"
	"time"
)

// simEpoch is the fixed start of virtual time, so failing runs print
// identical timestamps on every machine.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// SimClock is a virtual Clock for deterministic simulation testing. Time
// never passes on its own: it advances only when the test driver (or the
// Pump) fires pending timers, and the Pump fires one only when no work is
// outstanding.
//
// Outstanding work is an exact count of work tokens. Every running
// goroutine of the system under test holds one. A goroutine gives its
// token up when it parks on something only virtual time (or another
// goroutine's hand-off) can resolve, and whoever wakes it grants it a
// token before releasing its own: a timer firing, a cond signal, a
// channel hand-off, a goroutine start (see handoff.go). A goroutine that
// waits on CPU-only work keeps its token. The count therefore reaches zero
// exactly when every goroutine is parked, and that is the only instant the
// Pump moves time.
type SimClock struct {
	mu     sync.Mutex
	now    time.Time
	timers timerQueue

	// busy is the number of work tokens outstanding; idle is signalled
	// when it reaches zero (and whenever the Pump has something new to
	// look at).
	busy int
	idle sync.Cond
	// parked holds the goroutines parked on each hand-off key (a channel,
	// a Cond, a Group); ctxParked those of them that a context can also
	// wake.
	parked    map[any][]*parker
	ctxParked []*parker
	// ready holds the goroutines woken (or started) while a Pump runs, in
	// wake order; the Pump resumes them one per idle instant.
	ready   []func()
	pumping bool

	// members are the goroutine ids that touched this clock while the
	// oracle was on (see oracle.go).
	members map[int64]bool
	moves   uint64 // grants + releases: the oracle's progress counter
}

var _ Clock = (*SimClock)(nil)

// NewSim returns a virtual clock starting at a fixed epoch
// (2000-01-01T00:00:00Z).
func NewSim() *SimClock {
	c := &SimClock{now: simEpoch, parked: make(map[any][]*parker)}
	c.idle.L = &c.mu
	return c
}

// Now returns the current virtual time.
func (c *SimClock) Now() time.Time {
	c.touch()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *SimClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Until returns the virtual time remaining until t.
func (c *SimClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }

// Sleep parks the calling goroutine until virtual time advances by d. A
// d ≤ 0 moves no time but still parks until the Pump finds the clock idle:
// everything else due at the current instant runs first.
func (c *SimClock) Sleep(d time.Duration) {
	Recv(context.Background(), c, c.NewTimer(d).C()) //nolint:errcheck // Background never ends
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
	c.touch()
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.busy <= 0 {
		c.idle.Signal() // armed by a goroutine the count does not cover
	}
	return c.timers.set(t, c.now.Add(d))
}

func (c *SimClock) disarm(t *heapTimer) bool {
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
	defer c.mu.Unlock()
	target := c.now.Add(d)
	for t := c.timers.peek(); t != nil && !t.deadline.After(target); t = c.timers.peek() {
		c.fireNextLocked()
	}
	if c.now.Before(target) {
		c.now = target
	}
}

// AdvanceToNext jumps virtual time to the earliest pending deadline and
// fires that one timer (timers sharing the deadline fire on later calls,
// in arming order), reporting how far time moved and whether any timer
// was pending.
func (c *SimClock) AdvanceToNext() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timers.peek() == nil {
		return 0, false
	}
	before := c.now
	c.fireNextLocked()
	return c.now.Sub(before), true
}

// fireNextLocked pops the earliest timer, moves now to its deadline and
// delivers it with the clock lock released — callbacks are free to
// schedule new timers.
func (c *SimClock) fireNextLocked() {
	t := c.timers.pop()
	if c.now.Before(t.deadline) {
		c.now = t.deadline
	}
	now := c.now
	c.mu.Unlock()
	t.fire(now, c)
	c.mu.Lock()
}

// Pump drives the simulation from a background goroutine. The goroutine
// calling Pump becomes the driver: it holds one work token until it calls
// the returned stop function, so time stands still while the driver runs
// and moves only while it is parked in a clock wait.
//
// While a Pump runs, waking a goroutine (or starting one with Go) only
// queues it: the Pump resumes queued goroutines itself, one per idle
// instant, in the order they were woken. Whenever the token count is zero
// it resumes the next queued goroutine; failing that, it wakes the
// goroutines whose context ended while they were parked; failing that, it
// fires the earliest pending timer (equal deadlines in arming order). So
// one goroutine of the simulation runs at a time, in an order that
// depends on the schedule alone — not on the core count. stop must be
// called before the clock is abandoned.
func (c *SimClock) Pump() (stop func()) {
	c.touch()
	c.mu.Lock()
	c.grantLocked()
	c.pumping = true
	stopped := false
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		self := goid()
		c.mu.Lock()
		defer c.mu.Unlock()
		for {
			for !stopped && (c.busy > 0 || (len(c.ready) == 0 && c.timers.peek() == nil && c.cancelledLocked() == nil)) {
				c.waitIdleLocked(self)
			}
			if stopped {
				return
			}
			if len(c.ready) > 0 {
				run := c.ready[0]
				c.ready = c.ready[1:]
				c.grantLocked()
				run()
				continue
			}
			if ended := c.cancelledLocked(); ended != nil {
				for _, p := range ended {
					c.wakeLocked(p)
				}
				continue
			}
			if !c.checkLocked(self) {
				continue
			}
			if c.timers.peek() != nil {
				c.fireNextLocked()
			}
		}
	}()
	return func() {
		c.mu.Lock()
		stopped = true
		c.pumping = false
		for _, run := range c.ready {
			c.grantLocked()
			run()
		}
		c.ready = nil
		c.releaseLocked()
		c.idle.Signal()
		c.mu.Unlock()
		<-done
	}
}
