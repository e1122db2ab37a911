//go:build !race

package similarity

const raceEnabled = false
