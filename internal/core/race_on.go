//go:build race

package core

// raceEnabled turns on the pool contract's checks: under the race
// detector every put poisons the scratch it pools and checks what must
// be at rest (putColIndex, putLMScratch, putRecScratch). The tests read
// it too, to trim the slowest grids: the race detector is there for the
// parallel phases and the pools, not for the arithmetic the full grids
// pin.
const raceEnabled = true
