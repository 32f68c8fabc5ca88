package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// pumps counts the live Pump goroutines in this process once it reaches
// want (or stops changing): a stopped Pump's goroutine still unwinds for a
// moment after stop returns.
func pumps(want int) int {
	buf := make([]byte, 1<<20)
	n := -1
	for i := 0; i < 1000 && n != want; i++ {
		n = strings.Count(string(buf[:runtime.Stack(buf, true)]), "simclock.(*SimClock).Pump.func1")
		runtime.Gosched()
	}
	return n
}

// Close must stop the Pump goroutine — every schedule and BENCH path
// builds a rig per run, so a leaked Pump would spin for the rest of the
// process — and a second Close must be harmless.
func TestRigCloseStopsPump(t *testing.T) {
	before := pumps(0)
	rig := NewRig(WAN(40*time.Millisecond, 0), 1)
	if n := pumps(before + 1); n != before+1 {
		t.Fatalf("%d Pump goroutines after NewRig, want %d", n, before+1)
	}
	// The Pump is live: a virtual sleep returns without anyone else
	// advancing the clock.
	rig.Clock.Sleep(time.Hour)
	if got := rig.Elapsed(); got != time.Hour {
		t.Fatalf("Elapsed = %s after a 1h virtual sleep", got)
	}
	rig.Close()
	if n := pumps(before); n != before {
		t.Fatalf("%d Pump goroutines after Close, want %d", n, before)
	}
	rig.Close()
}
