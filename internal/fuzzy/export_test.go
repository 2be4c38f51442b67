package fuzzy

// Test-only access for the external fuzzy_test package, which can build
// the paper's controllers from internal/core.

// CheckSurfaceMatchesReference is checkSurfaceMatchesReference.
var CheckSurfaceMatchesReference = checkSurfaceMatchesReference

// SurfaceDefuzzCount compiles e's surface at the given resolution and
// reports how many term-strength vectors the compile defuzzified.
func SurfaceDefuzzCount(e *Engine, resolution int) (int, error) {
	_, n, err := compileSurface(e, resolution)
	return n, err
}
