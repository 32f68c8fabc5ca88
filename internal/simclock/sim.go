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
// never passes on its own: it moves only when every goroutine of the
// simulation is parked.
//
// Outstanding work is an exact count of work tokens. A goroutine gives
// its token up when it parks on something only virtual time or another
// goroutine can resolve (see handoff.go), and whoever wakes it queues it
// to be resumed with one; CPU-only waits keep it. The count reaches zero
// exactly when every goroutine is parked, and the release that takes it
// there steps the clock (stepLocked). So one goroutine of the simulation
// runs at a time, in an order that depends on the schedule alone.
type SimClock struct {
	mu     sync.Mutex
	now    time.Time
	timers timerQueue

	// busy is the number of work tokens outstanding.
	busy int
	// parked holds the goroutines parked on each hand-off key (a channel,
	// a Cond, a Group); ctxParked those of them that a context can also
	// wake.
	parked    map[any][]*parker
	ctxParked []*parker
	// ready holds the goroutines woken (or started) but not yet resumed,
	// in wake order; each step resumes the first.
	ready []func()
	// stepping is set while a step runs, so that work a func-timer
	// callback makes pending is left to that step's next pass.
	stepping bool

	// members are the goroutine ids that touched this clock while the
	// oracle was on, and watched is set while its watchdog is armed (see
	// oracle.go).
	members map[int64]bool
	watched bool
	moves   uint64 // grants + releases: the oracle's progress counter
}

var _ Clock = (*SimClock)(nil)

// NewSim returns a virtual clock starting at a fixed epoch
// (2000-01-01T00:00:00Z). The calling goroutine becomes its driver: it
// holds a work token, so time moves only while it is parked in a clock
// wait (Sleep, Recv, a Cond or Group wait, or anything built on them).
func NewSim() *SimClock {
	return &SimClock{now: simEpoch, parked: make(map[any][]*parker), busy: 1}
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
// d ≤ 0 moves no time but still parks until every other goroutine is
// parked: everything else due at the current instant runs first.
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
// stepping the clock, with no clock lock held.
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
	active := c.timers.set(t, c.now.Add(d))
	c.stepLocked() // a no-op unless armed by a goroutine the count does not cover
	return active
}

func (c *SimClock) disarm(t *heapTimer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timers.remove(t)
}

// fireNextLocked pops the earliest timer, moves now to its deadline (never
// behind now: every deadline is set from now) and delivers it with the
// clock lock released — callbacks are free to schedule new timers.
func (c *SimClock) fireNextLocked() {
	t := c.timers.pop()
	c.now = t.deadline
	now := c.now
	c.mu.Unlock()
	t.fire(now, c)
	c.mu.Lock()
}

// stepLocked moves the simulation on once no token is outstanding: it
// resumes the next ready goroutine, else wakes the parked goroutines whose
// context ended, else fires the earliest timer (equal deadlines in arming
// order), until a token is granted or nothing is pending. It runs on the
// release that took the count to zero, or on a goroutine the count does
// not cover (a context's callback, an arm or wake from outside the
// simulation); what a running step's timer callbacks make pending waits
// for that step's next pass.
func (c *SimClock) stepLocked() {
	if c.busy > 0 || c.stepping {
		return
	}
	c.stepping = true
	defer func() { c.stepping = false }()
	for c.busy <= 0 {
		switch {
		case len(c.ready) > 0:
			run := c.ready[0]
			c.ready = c.ready[1:]
			c.busy++
			c.moves++
			run()
		case c.wakeCancelledLocked():
		case c.timers.peek() != nil:
			if c.checkLocked() {
				c.fireNextLocked()
			}
		default:
			c.deadlockLocked()
			return
		}
	}
}
