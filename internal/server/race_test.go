//go:build race

package server

// raceEnabled reports that the test binary runs under the race detector,
// where sync.Pool drops items at random and tight allocation counts do not
// hold.
const raceEnabled = true
