//go:build race

package core

// raceEnabled trims the slowest grids under the race detector, which is
// there for the parallel phases, not for the arithmetic the full grids pin.
const raceEnabled = true
