//go:build !race

package core

// raceEnabled is false outside the race detector, so every branch on it
// compiles away and the served code carries no pool check.
const raceEnabled = false
