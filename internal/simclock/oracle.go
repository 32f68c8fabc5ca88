package simclock

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The oracle proves the work tokens complete instead of hoping. Switched
// on (SetOracle), every Pump checks two things against the goroutine
// headers of runtime.Stack(all):
//
//   - Before it advances time, no goroutine that touched the clock is
//     running or runnable. One that is runs without a token: somebody
//     woke it without the grant (a raw go statement, channel or cond in
//     the system under test).
//   - While tokens are outstanding, some goroutine is running. If every
//     goroutine is parked and the count has not moved for a while, a token
//     leaked — a parked goroutine kept it — and the run would hang.
//
// It stops the world once per advance, so it is a check, never the
// mechanism; off, it costs one atomic load per clock operation.

var oracle atomic.Pointer[func(string)]

// SetOracle switches the oracle on with report as its failure sink (nil
// switches it off) and returns the previous sink. report runs on a Pump
// goroutine, under the clock's lock, with a description and the offending
// goroutines' stacks; it may panic.
func SetOracle(report func(msg string)) (prev func(string)) {
	var old *func(string)
	if report == nil {
		old = oracle.Swap(nil)
	} else {
		old = oracle.Swap(&report)
	}
	if old == nil {
		return nil
	}
	return *old
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
	buf := make([]byte, dumpSize.Load())
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

func init() { dumpSize.Store(64 << 10) }

// parseHeader reads "goroutine 7 [chan receive, 2 minutes]:".
func parseHeader(entry string) (Goroutine, bool) {
	rest, ok := strings.CutPrefix(entry, "goroutine ")
	if !ok {
		return Goroutine{}, false
	}
	id, rest, ok := strings.Cut(rest, " [")
	if !ok {
		return Goroutine{}, false
	}
	state, _, ok := strings.Cut(rest, "]")
	if !ok {
		return Goroutine{}, false
	}
	n, err := strconv.ParseInt(id, 10, 64)
	if err != nil {
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
// parked, before the idle wait calls it a leaked token.
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
		for _, p := range parkingFrames {
			if strings.Contains(line, p) {
				return true
			}
		}
		return false
	}
	return false
}

// checkLocked is the advance check: it returns false if the token count
// moved while it looked (the Pump must wait again), true once time may
// advance. A member running anything but its own parking is reported.
func (c *SimClock) checkLocked(self int64) bool {
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
	var running []string
	for _, g := range gs {
		if g.ID != self && c.members[g.ID] && g.Running() && !parking(g) {
			running = append(running, g.Stack)
		}
	}
	if running != nil {
		(*report)(fmt.Sprintf("simclock oracle: missing grant: time is about to advance from %v with no token outstanding, but %d goroutine(s) of the simulation are running:\n\n%s",
			c.now, len(running), strings.Join(running, "\n\n")))
	}
	return true
}

// waitIdleLocked parks the Pump until the count may have reached zero.
// With the oracle on the wait is bounded by oracleStall: a count that
// stayed put that long with every goroutine parked is a leaked token.
func (c *SimClock) waitIdleLocked(self int64) {
	report := oracle.Load()
	if report == nil {
		c.idle.Wait()
		return
	}
	moves := c.moves
	t := time.AfterFunc(oracleStall, func() {
		c.mu.Lock()
		c.idle.Signal()
		c.mu.Unlock()
	})
	c.idle.Wait()
	if t.Stop() || c.busy <= 0 || c.moves != moves {
		return
	}
	c.mu.Unlock()
	gs := Goroutines()
	c.mu.Lock()
	if c.busy <= 0 || c.moves != moves {
		return
	}
	var stacks []string
	for _, g := range gs {
		if g.ID == self {
			continue
		}
		if g.Running() {
			stacks = nil
			break
		}
		stacks = append(stacks, g.Stack)
	}
	if stacks != nil {
		(*report)(fmt.Sprintf("simclock oracle: leaked token: %d token(s) outstanding for %v while every goroutine is parked:\n\n%s",
			c.busy, oracleStall, strings.Join(stacks, "\n\n")))
	}
}
