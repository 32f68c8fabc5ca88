package experiments

import (
	"testing"

	"github.com/ginja-dr/ginja/internal/simclock/simtest"
)

// TestMain runs every test with the simclock oracle on and fails the
// binary if a goroutine of the system under test outlives them.
func TestMain(m *testing.M) { simtest.Main(m) }
