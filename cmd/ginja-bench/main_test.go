package main

import (
	"io"
	"testing"

	"github.com/ginja-dr/ginja/internal/simclock/simtest"
)

// TestMain runs every test with the simclock oracle on and fails the
// binary if a goroutine of the system under test outlives them.
func TestMain(m *testing.M) { simtest.Main(m) }

// TestJSONSmokes runs the four BENCH paths' smoke scenarios — what the
// bench-*-smoke targets run — under the token oracle, gates included.
func TestJSONSmokes(t *testing.T) {
	for _, path := range []string{"datapath", "commit", "recovery", "fleet"} {
		t.Run(path, func(t *testing.T) {
			o := &options{path: path, parallel: 5, smoke: true}
			if err := runJSON(io.Discard, o, ""); err != nil {
				t.Fatal(err)
			}
		})
	}
}
