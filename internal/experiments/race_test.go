//go:build race

package experiments

// raceEnabled is whether the test binary runs under the race detector.
const raceEnabled = true
