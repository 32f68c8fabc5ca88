// Package simtest is the test-binary side of simclock: a TestMain that
// switches the token oracle on for every test of a package and, once they
// have run, fails the binary if a goroutine of the system under test
// outlived them.
package simtest

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ginja-dr/ginja/internal/simclock"
)

// Main runs m with the oracle on (a report panics, printing the stacks
// that broke the token rule), then checks for leaked goroutines.
func Main(m *testing.M) {
	simclock.SetOracle(func(msg string) { panic(msg) })
	code := m.Run()
	if code == 0 {
		if err := CheckLeaks(5 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// CheckLeaks waits up to grace for every goroutine running (or started
// by) code of the replication core or the clock to exit, and reports the
// stacks of those that do not.
func CheckLeaks(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	for {
		var leaked []string
		for _, g := range simclock.Goroutines()[1:] {
			if strings.Contains(g.Stack, "ginja/internal/core.") || strings.Contains(g.Stack, "ginja/internal/simclock.") {
				leaked = append(leaked, g.Stack)
			}
		}
		if leaked == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("simtest: %d goroutine(s) outlived the tests:\n\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
		<-time.After(20 * time.Millisecond)
	}
}
