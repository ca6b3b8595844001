//go:build race

package experiments

// raceEnabled reports that the test binary runs under the race detector,
// where the repro profile's sweeps take minutes instead of seconds.
const raceEnabled = true
