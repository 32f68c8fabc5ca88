package simclock

import (
	"context"
	"reflect"
	"slices"
	"sync"
)

// The hand-off vocabulary: every place a goroutine of the system under
// test starts another goroutine, parks, or wakes a parked one goes through
// these helpers, so that a SimClock's work-token count stays exact. On any
// other clock each is the plain operation — go, sync.Cond, sync.WaitGroup,
// a channel send/receive/close. Under a SimClock a parked goroutine waits
// on its own wake channel: the attempt is made under the clock's lock, a
// goroutine that changes a key (a channel, Cond or Group) wakes those
// parked on it, and a woken goroutine retries, parking again if it lost.

// simOf returns the SimClock whose tokens clk's waits are counted on, or
// nil for the wall clock.
func simOf(clk Clock) *SimClock {
	switch c := clk.(type) {
	case *SimClock:
		return c
	case *Wheel:
		return c.sim
	}
	return nil
}

// parker is one goroutine parked on a hand-off key.
type parker struct {
	key  any
	ctx  context.Context // nil unless a context can wake it
	wake chan struct{}   // closed, with a token granted, when woken
	stop func() bool     // deregisters the context callback
}

// releaseLocked gives up a token; the last one steps the clock.
func (c *SimClock) releaseLocked() {
	c.busy--
	c.moves++
	c.stepLocked()
}

// parkLocked registers the calling goroutine on key. The caller then
// drops any lock a timer callback could need, gives up its token
// (releaseLocked, which may step) and receives from p.wake.
func (c *SimClock) parkLocked(key any, ctx context.Context) *parker {
	p := &parker{key: key, wake: make(chan struct{})}
	c.parked[key] = append(c.parked[key], p)
	c.watchLocked()
	if ctx != nil && ctx.Done() != nil {
		p.ctx = ctx
		c.ctxParked = append(c.ctxParked, p)
		p.stop = context.AfterFunc(ctx, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.stepLocked() // the step wakes it, unless a token is outstanding
		})
	}
	return p
}

// resumeLocked queues a parked (or not yet started) goroutine to run with
// a token; steps resume queued goroutines one at a time, in wake order.
func (c *SimClock) resumeLocked(run func()) {
	c.ready = append(c.ready, run)
	c.stepLocked()
}

// wakeLocked resumes p, unless it was woken already.
func (c *SimClock) wakeLocked(p *parker) {
	ps := c.parked[p.key]
	i := slices.Index(ps, p)
	if i < 0 {
		return
	}
	if ps = slices.Delete(ps, i, i+1); len(ps) == 0 {
		delete(c.parked, p.key)
	} else {
		c.parked[p.key] = ps
	}
	if p.ctx != nil {
		c.ctxParked = slices.DeleteFunc(c.ctxParked, func(q *parker) bool { return q == p })
	}
	c.resumeLocked(func() { close(p.wake) })
}

// wakeAllLocked wakes every goroutine parked on key, in parking order.
func (c *SimClock) wakeAllLocked(key any) {
	for ps := c.parked[key]; len(ps) > 0; ps = c.parked[key] {
		c.wakeLocked(ps[0])
	}
}

// wakeCancelledLocked wakes the parked goroutines whose context has ended,
// in parking order, and reports whether there were any.
func (c *SimClock) wakeCancelledLocked() bool {
	var ended []*parker
	for _, p := range c.ctxParked {
		if p.ctx.Err() != nil {
			ended = append(ended, p)
		}
	}
	for _, p := range ended {
		c.wakeLocked(p)
	}
	return ended != nil
}

// await runs try under the clock lock until it succeeds, parking on key
// between attempts; a successful attempt wakes everything parked on key
// (the other side of the channel, or a loser of the same race that must
// look again). It gives up with ctx's error once ctx has ended.
func (c *SimClock) await(ctx context.Context, key any, try func() bool) error {
	c.touch()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if try() {
			c.wakeAllLocked(key)
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		p := c.parkLocked(key, ctx)
		c.releaseLocked()
		c.mu.Unlock()
		<-p.wake
		if p.stop != nil {
			p.stop()
		}
		c.mu.Lock()
	}
}

// Go runs f on a new goroutine. Under a SimClock the goroutine holds a
// work token from before it starts until f returns.
func Go(clk Clock, f func()) { NewGroup(clk).Go(f) }

// Group is a sync.WaitGroup over goroutines started with its Go: Wait
// parks like any other clock wait.
type Group struct {
	sim *SimClock
	wg  sync.WaitGroup
	n   int // live members under a SimClock, guarded by sim.mu
}

// NewGroup returns an empty Group on clk.
func NewGroup(clk Clock) *Group { return &Group{sim: simOf(clk)} }

// Go runs f on a new member goroutine (see the package-level Go).
func (g *Group) Go(f func()) {
	s := g.sim
	if s == nil {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			f()
		}()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g.n++
	s.resumeLocked(func() { // the token is granted before the go statement
		go func() {
			s.touch()
			defer s.finish(g)
			f()
		}()
	})
}

// finish ends a member of g under a SimClock: the last one wakes g's
// waiters, then the member gives its token up.
func (c *SimClock) finish(g *Group) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.n--; g.n == 0 {
		c.wakeAllLocked(g)
	}
	c.dropMemberLocked()
	c.releaseLocked()
}

// Wait blocks until every member has returned.
func (g *Group) Wait() {
	if g.sim == nil {
		g.wg.Wait()
		return
	}
	g.sim.await(context.Background(), g, func() bool { return g.n == 0 }) //nolint:errcheck
}

// Cond is a sync.Cond whose Wait gives up the caller's work token and
// whose Signal/Broadcast grant one to each goroutine they wake.
type Cond struct {
	sync.Cond
	sim *SimClock
}

// NewCond returns a Cond on clk with lock l.
func NewCond(clk Clock, l sync.Locker) *Cond {
	return &Cond{Cond: sync.Cond{L: l}, sim: simOf(clk)}
}

// Wait atomically unlocks L and parks until a Signal or Broadcast, then
// relocks L.
func (c *Cond) Wait() {
	s := c.sim
	if s == nil {
		c.Cond.Wait()
		return
	}
	s.touch()
	s.mu.Lock()
	p := s.parkLocked(c, nil)
	c.L.Unlock() // before the release: its step may fire a callback that takes L
	s.releaseLocked()
	s.mu.Unlock()
	<-p.wake
	c.L.Lock()
}

// Signal wakes the longest-parked waiter, if any.
func (c *Cond) Signal() {
	s := c.sim
	if s == nil {
		c.Cond.Signal()
		return
	}
	s.mu.Lock()
	if ps := s.parked[c]; len(ps) > 0 {
		s.wakeLocked(ps[0])
	}
	s.mu.Unlock()
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	s := c.sim
	if s == nil {
		c.Cond.Broadcast()
		return
	}
	s.mu.Lock()
	s.wakeAllLocked(c)
	s.mu.Unlock()
}

// chanKey identifies a channel whichever direction it is typed with.
func chanKey(ch any) any { return reflect.ValueOf(ch).UnsafePointer() }

// Send sends v on ch, giving up with ctx's error if ctx ends first.
// Under a SimClock neither side ever blocks inside the channel itself, so
// ch must be buffered: an unbuffered channel can only be closed.
func Send[T any](ctx context.Context, clk Clock, ch chan<- T, v T) error {
	s := simOf(clk)
	if s == nil {
		select {
		case ch <- v:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if cap(ch) == 0 {
		panic("simclock: Send on an unbuffered channel can never complete under a SimClock")
	}
	return s.await(ctx, chanKey(ch), func() bool {
		select {
		case ch <- v:
			return true
		default:
			return false
		}
	})
}

// Recv receives from ch; ok is false once ch is closed and drained. It
// gives up with ctx's error if ctx ends first.
func Recv[T any](ctx context.Context, clk Clock, ch <-chan T) (v T, ok bool, err error) {
	s := simOf(clk)
	if s == nil {
		select {
		case v, ok = <-ch:
			return v, ok, nil
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	err = s.await(ctx, chanKey(ch), func() bool {
		select {
		case v, ok = <-ch:
			return true
		default:
			return false
		}
	})
	return v, ok, err
}

// Close closes ch, waking every goroutine parked on it.
func Close[T any](clk Clock, ch chan<- T) {
	s := simOf(clk)
	if s == nil {
		close(ch)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	close(ch)
	s.wakeAllLocked(chanKey(ch))
}
