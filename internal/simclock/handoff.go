package simclock

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"time"
)

// The hand-off vocabulary: every place a goroutine of the system under
// test starts another goroutine, parks, or wakes a parked one goes through
// these helpers, so that a SimClock's work-token count stays exact (see
// SimClock). On any other clock each helper is the plain operation — go,
// sync.Cond, sync.WaitGroup, a channel send/receive/close — so production
// runs the same instructions with or without a simulation behind it.
//
// Under a SimClock a parked goroutine waits on its own wake channel, never
// directly on the operation it needs: the attempt is made under the
// clock's lock, and a goroutine that changes a key (sends, receives or
// closes a channel, signals a Cond, finishes a Group member) wakes the
// goroutines parked on it with one token each. A woken goroutine retries
// and parks again if it lost the race. A context that ends wakes its
// parked goroutines too — from the Pump at the next idle instant, or at
// once when no Pump runs.

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

func (c *SimClock) grantLocked() {
	c.busy++
	c.moves++
}

func (c *SimClock) releaseLocked() {
	c.busy--
	c.moves++
	if c.busy <= 0 {
		c.idle.Signal()
	}
}

// parkLocked registers the calling goroutine on key and gives up its
// token; the caller unlocks and receives from the returned wake channel.
func (c *SimClock) parkLocked(key any, ctx context.Context) *parker {
	p := &parker{key: key, wake: make(chan struct{})}
	c.parked[key] = append(c.parked[key], p)
	if ctx != nil && ctx.Done() != nil {
		p.ctx = ctx
		c.ctxParked = append(c.ctxParked, p)
		p.stop = context.AfterFunc(ctx, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.pumping {
				c.idle.Signal() // the Pump wakes it at the next idle instant
			} else {
				c.wakeLocked(p)
			}
		})
	}
	c.releaseLocked()
	return p
}

// resumeLocked makes a parked (or not yet started) goroutine runnable with
// a token: while a Pump runs it joins the ready queue, which the Pump
// drains one goroutine per idle instant in wake order; otherwise at once.
func (c *SimClock) resumeLocked(run func()) {
	if !c.pumping {
		c.grantLocked()
		run()
		return
	}
	c.ready = append(c.ready, run)
	if c.busy <= 0 {
		c.idle.Signal()
	}
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

// cancelledLocked returns the parked goroutines whose context has ended,
// in parking order.
func (c *SimClock) cancelledLocked() []*parker {
	var ended []*parker
	for _, p := range c.ctxParked {
		if p.ctx.Err() != nil {
			ended = append(ended, p)
		}
	}
	return ended
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
		c.mu.Unlock()
		<-p.wake
		if p.stop != nil {
			p.stop()
		}
		c.mu.Lock()
	}
}

// startLocked runs f on a new goroutine that holds a token from before its
// go statement (see resumeLocked) until f returns and exit has run under
// the clock lock.
func (c *SimClock) startLocked(f func(), exit func()) {
	c.resumeLocked(func() {
		go func() {
			c.touch()
			defer c.finish(exit)
			f()
		}()
	})
}

// finish ends a goroutine started by startLocked: exit, then the release.
func (c *SimClock) finish(exit func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if exit != nil {
		exit()
	}
	c.dropMemberLocked()
	c.releaseLocked()
}

// Go runs f on a new goroutine. Under a SimClock the goroutine holds a
// work token from before it starts until f returns.
func Go(clk Clock, f func()) {
	if s := simOf(clk); s != nil {
		s.mu.Lock()
		s.startLocked(f, nil)
		s.mu.Unlock()
		return
	}
	go f()
}

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
	s.startLocked(f, func() {
		if g.n--; g.n == 0 {
			s.wakeAllLocked(g)
		}
	})
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
	s.mu.Unlock()
	c.L.Unlock()
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
	if s := simOf(clk); s != nil {
		return sendSim(ctx, s, ch, v)
	}
	done := ctx.Done()
	if done == nil {
		ch <- v
		return nil
	}
	select {
	case ch <- v:
		return nil
	case <-done:
		return ctx.Err()
	}
}

func sendSim[T any](ctx context.Context, s *SimClock, ch chan<- T, v T) error {
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
	if s := simOf(clk); s != nil {
		return recvSim(ctx, s, ch)
	}
	done := ctx.Done()
	if done == nil {
		v, ok = <-ch
		return v, ok, nil
	}
	select {
	case v, ok = <-ch:
		return v, ok, nil
	case <-done:
		return v, false, ctx.Err()
	}
}

func recvSim[T any](ctx context.Context, s *SimClock, ch <-chan T) (v T, ok bool, err error) {
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

// deliver is a channel timer firing: a non-blocking send of now, which
// wakes (and grants a token to) whoever is parked on the channel. A fire
// nobody is parked on grants nothing, so a timer stopped or abandoned
// with its value unconsumed leaves no token behind.
func deliver(s *SimClock, ch chan time.Time, now time.Time) {
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	select {
	case ch <- now:
	default:
	}
	if s != nil {
		s.wakeAllLocked(chanKey(ch))
	}
}
