//go:build race

package main

// The race detector slows the ladder several times over; its time limit
// is for the plain build.
func init() { ladderTimeLimit = 0 }
