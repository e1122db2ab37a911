package lockcheck_test

import (
	"testing"

	"cfsf/internal/analysis/analysistest"
	"cfsf/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "locked", "guarded", "guarduser")
}

// TestImmutablePublished covers writes to immutable fields of values
// loaded from an atomic pointer, and writes inside closures.
func TestImmutablePublished(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "published")
}

// TestImmutableCrossPackage covers the same writes to an imported
// immutable field, whose contract arrives as a fact.
func TestImmutableCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "guarded", "publisheduser")
}
