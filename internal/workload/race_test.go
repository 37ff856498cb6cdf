//go:build race

package workload

// raceEnabled reports a build with the race detector.
const raceEnabled = true
