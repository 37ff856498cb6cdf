//go:build !race

package experiments

// raceEnabled reports a build with the race detector.
const raceEnabled = false
