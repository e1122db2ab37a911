//go:build race

package similarity

// raceEnabled turns on the pool contract's check: under the race
// detector putRefreshScratch checks that every scratch it pools is all
// zero. The tests read it too, to trim the slowest grids: the race
// detector is there for the parallel phases and the pools, not for the
// arithmetic the full grids pin.
const raceEnabled = true
