//go:build !race

package fuzzy_test

import "testing"

// TestSurfaceMatchesReferenceFLCFine extends TestSurfaceMatchesReferenceFLC
// to resolution 65: 275k reference inferences per engine, which the race
// detector slows tenfold while finding nothing to check in a compile that
// runs on one goroutine.
func TestSurfaceMatchesReferenceFLCFine(t *testing.T) {
	checkFLCSurfaces(t, 65)
}
