// Package wiregone deleted its only wire type; its golden still records
// it.
package wiregone // want "records wire type frame, which no //cfsf:wire type"

// frame is no longer serialized.
type frame struct {
	Version int
}

var _ = frame{}
