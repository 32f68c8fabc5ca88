package simclock

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The oracle proves the work tokens complete instead of hoping. Switched
// on (SetOracle), every SimClock reports three failures:
//
//   - missing grant (checkLocked): time is about to advance while a
//     goroutine that touched the clock runs — woken without a token by a
//     raw go statement, channel or cond in the system under test;
//   - leaked token (watchLocked): tokens outstanding, yet every goroutine
//     is parked and the count has not moved for oracleStall;
//   - deadlock (deadlockLocked): a step finds nothing to do while
//     goroutines are parked that no context can wake.
//
// It stops the world once per advance, so it is a check, never the
// mechanism; off, it costs one atomic load per clock operation. Its
// watchdog is the only background goroutine this package ever starts.

var oracle atomic.Pointer[func(string)]

// SetOracle switches the oracle on with report as its failure sink (nil
// switches it off) and returns the previous sink. report runs under the
// clock's lock, on the goroutine stepping it or on the watchdog, with a
// description and the offending goroutines' stacks; it may panic.
func SetOracle(report func(msg string)) (prev func(string)) {
	next := &report
	if report == nil {
		next = nil
	}
	if old := oracle.Swap(next); old != nil {
		prev = *old
	}
	return prev
}

// Goroutine is one entry of a runtime.Stack(all) dump.
type Goroutine struct {
	ID    int64
	State string // "running", "runnable", "chan receive", "select", …
	Stack string // the whole entry, header included
}

// Running reports whether the goroutine is on or waiting for a CPU.
func (g Goroutine) Running() bool { return g.State == "running" || g.State == "runnable" }

// Goroutines parses the headers of a runtime.Stack dump of every
// goroutine. The calling goroutine comes first.
func Goroutines() []Goroutine {
	buf := make([]byte, max(dumpSize.Load(), 64<<10))
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
		dumpSize.Store(int64(len(buf)))
	}
	var gs []Goroutine
	for _, entry := range strings.Split(string(buf), "\n\n") {
		if g, ok := parseHeader(entry); ok {
			gs = append(gs, g)
		}
	}
	return gs
}

// dumpSize is the buffer the last dump needed, so the next one usually
// takes a single runtime.Stack call.
var dumpSize atomic.Int64

// parseHeader reads "goroutine 7 [chan receive, 2 minutes]:".
func parseHeader(entry string) (Goroutine, bool) {
	head, _, closed := strings.Cut(entry, "]")
	rest, named := strings.CutPrefix(head, "goroutine ")
	id, state, opened := strings.Cut(rest, " [")
	n, err := strconv.ParseInt(id, 10, 64)
	if !closed || !named || !opened || err != nil {
		return Goroutine{}, false
	}
	state, _, _ = strings.Cut(state, ",")
	return Goroutine{ID: n, State: state, Stack: entry}, true
}

// goid returns the calling goroutine's id.
func goid() int64 {
	var buf [64]byte
	g, _ := parseHeader(string(buf[:runtime.Stack(buf[:], false)]))
	return g.ID
}

// touch records the calling goroutine as a member of the simulation while
// the oracle is on.
func (c *SimClock) touch() {
	if oracle.Load() == nil {
		return
	}
	id := goid()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.members == nil {
		c.members = make(map[int64]bool)
	}
	c.members[id] = true
}

func (c *SimClock) dropMemberLocked() {
	if oracle.Load() != nil {
		delete(c.members, goid())
	}
}

// oracleStall is how long the count may sit still, with every goroutine
// parked, before the watchdog calls it a leaked token.
const oracleStall = time.Second

// parkingFrames are the hand-off code a goroutine runs after giving its
// token up: on its way to its wake channel, or out of a Go.
var parkingFrames = []string{
	"/simclock.(*SimClock).await(", "/simclock.(*Cond).Wait(", "/simclock.(*SimClock).finish(",
}

// parking reports whether g's innermost frame of this module is hand-off
// code past its token release. runtime.Stack(all) stops the world, so
// every other goroutine has its stack in the dump.
func parking(g Goroutine) bool {
	for _, line := range strings.Split(g.Stack, "\n")[1:] {
		if strings.HasPrefix(line, "\t") {
			continue
		}
		if strings.HasPrefix(line, "runtime.") || strings.HasPrefix(line, "sync.") ||
			strings.HasPrefix(line, "sync/") || strings.HasPrefix(line, "internal/") {
			continue // the standard library's locks and atomics on the way
		}
		return slices.ContainsFunc(parkingFrames, func(f string) bool { return strings.Contains(line, f) })
	}
	return false
}

// checkLocked is the advance check: it returns false if the token count
// moved while it looked (the step must look again), true once time may
// advance. A member running anything but its own parking is reported.
func (c *SimClock) checkLocked() bool {
	report := oracle.Load()
	if report == nil {
		return true
	}
	moves := c.moves
	c.mu.Unlock()
	gs := Goroutines()
	c.mu.Lock()
	if c.moves != moves || c.busy > 0 {
		return false
	}
	running := slices.DeleteFunc(gs[1:], func(g Goroutine) bool { return !c.members[g.ID] || !g.Running() || parking(g) })
	if len(running) > 0 {
		(*report)(fmt.Sprintf("simclock oracle: missing grant: time is about to advance from %v with no token outstanding, but %d goroutine(s) of the simulation are running:\n\n%s",
			c.now, len(running), stacks(running)))
	}
	return true
}

// watchLocked arms the leaked-token watchdog, with the oracle on, unless
// it is armed already. Every oracleStall it looks for tokens outstanding,
// goroutines parked on the clock, no move since its last look and no
// goroutine of the process running. It rearms while goroutines stay
// parked; the next one to park arms it otherwise (a finished run's driver
// keeps its token for good, with nothing left waiting).
func (c *SimClock) watchLocked() {
	report := oracle.Load()
	if c.watched || report == nil {
		return
	}
	c.watched = true
	seen := c.moves
	time.AfterFunc(oracleStall, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.watched = false
		if oracle.Load() == nil || len(c.parked) == 0 {
			return
		}
		if c.busy > 0 && c.moves == seen {
			c.mu.Unlock()
			gs := Goroutines()[1:]
			c.mu.Lock()
			if c.busy > 0 && c.moves == seen && len(c.parked) > 0 && !slices.ContainsFunc(gs, Goroutine.Running) {
				(*report)(fmt.Sprintf("simclock oracle: leaked token: %d token(s) outstanding for %v while every goroutine is parked:\n\n%s",
					c.busy, oracleStall, stacks(gs)))
			}
		}
		c.watchLocked()
	})
}

// deadlockLocked ends a step that found nothing to do. If goroutines are
// parked and none of them on a context (which could still end), every one
// of them is parked for good: only a token holder wakes a parked
// goroutine, and none is left. The oracle reports it at once; off, the
// clock waits for a wake from outside the simulation.
func (c *SimClock) deadlockLocked() {
	report := oracle.Load()
	if report == nil || len(c.parked) == 0 || len(c.ctxParked) > 0 {
		return
	}
	(*report)(fmt.Sprintf("simclock oracle: deadlock at %v: nothing is ready, no timer is pending and no context can end, but %d hand-off(s) have goroutines parked on them:\n\n%s",
		c.now, len(c.parked), stacks(Goroutines())))
}

// stacks joins the goroutines' stacks for a report.
func stacks(gs []Goroutine) string {
	all := make([]string, len(gs))
	for i, g := range gs {
		all[i] = g.Stack
	}
	return strings.Join(all, "\n\n")
}
