//go:build race

package core

// raceEnabled reports that the test binary runs under the race detector,
// where sync.Pool drops items at random and allocation counts do not hold.
const raceEnabled = true
