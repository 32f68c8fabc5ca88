//go:build race

package sealer

func init() { raceEnabled = true }
