// Package wirestale keeps one wire type in sync with its golden and
// deleted another whose entry the golden still holds.
package wirestale // want "records wire type legacy, which no //cfsf:wire type"

//cfsf:wire recVersion
type record struct {
	Version int
	Names   []string
}

const recVersion = 2
