package hexgrid

import (
	"math"
	"testing"
	"testing/quick"

	"facsp/internal/rng"
)

func TestNeighbors(t *testing.T) {
	n := Coord{}.Neighbors()
	want := [6]Coord{
		{Q: 1, R: 0}, {Q: 1, R: -1}, {Q: 0, R: -1},
		{Q: -1, R: 0}, {Q: -1, R: 1}, {Q: 0, R: 1},
	}
	if n != want {
		t.Errorf("Neighbors = %v, want %v", n, want)
	}
	for _, nb := range n {
		if Distance(Coord{}, nb) != 1 {
			t.Errorf("neighbor %v at distance %d, want 1", nb, Distance(Coord{}, nb))
		}
	}
}

func TestDistance(t *testing.T) {
	tests := []struct {
		a, b Coord
		want int
	}{
		{a: Coord{}, b: Coord{}, want: 0},
		{a: Coord{}, b: Coord{Q: 3, R: 0}, want: 3},
		{a: Coord{}, b: Coord{Q: 0, R: -2}, want: 2},
		{a: Coord{}, b: Coord{Q: 2, R: -1}, want: 2},
		{a: Coord{}, b: Coord{Q: -1, R: 2}, want: 2},
		{a: Coord{Q: 1, R: 1}, b: Coord{Q: -1, R: -1}, want: 4},
	}
	for _, tt := range tests {
		if got := Distance(tt.a, tt.b); got != tt.want {
			t.Errorf("Distance(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := Distance(tt.b, tt.a); got != tt.want {
			t.Errorf("Distance not symmetric for %v, %v", tt.a, tt.b)
		}
	}
}

func TestRing(t *testing.T) {
	if got := Ring(Coord{}, -1); got != nil {
		t.Errorf("Ring(-1) = %v, want nil", got)
	}
	if got := Ring(Coord{}, 0); len(got) != 1 || got[0] != (Coord{}) {
		t.Errorf("Ring(0) = %v", got)
	}
	for radius := 1; radius <= 4; radius++ {
		ring := Ring(Coord{Q: 2, R: -1}, radius)
		if len(ring) != 6*radius {
			t.Fatalf("Ring radius %d has %d cells, want %d", radius, len(ring), 6*radius)
		}
		seen := make(map[Coord]bool, len(ring))
		for _, c := range ring {
			if got := Distance(Coord{Q: 2, R: -1}, c); got != radius {
				t.Errorf("ring cell %v at distance %d, want %d", c, got, radius)
			}
			if seen[c] {
				t.Errorf("ring cell %v repeated", c)
			}
			seen[c] = true
		}
	}
}

func TestDisk(t *testing.T) {
	for radius := 0; radius <= 4; radius++ {
		disk := Disk(Coord{}, radius)
		want := 1 + 3*radius*(radius+1)
		if len(disk) != want {
			t.Fatalf("Disk(%d) has %d cells, want %d", radius, len(disk), want)
		}
		seen := make(map[Coord]bool, len(disk))
		for _, c := range disk {
			if Distance(Coord{}, c) > radius {
				t.Errorf("disk cell %v beyond radius %d", c, radius)
			}
			if seen[c] {
				t.Errorf("disk cell %v repeated", c)
			}
			seen[c] = true
		}
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	l := NewLayout(1000)
	cells := Disk(Coord{}, 3)
	for _, c := range cells {
		x, y := l.Center(c)
		if got := l.CellAt(x, y); got != c {
			t.Errorf("CellAt(Center(%v)) = %v", c, got)
		}
	}
}

func TestLayoutCellAtPerturbed(t *testing.T) {
	// Points well inside a hexagon (within the inradius) must map to it.
	l := NewLayout(1000)
	src := rng.New(42)
	inradius := 1000 * math.Sqrt(3) / 2
	for _, c := range Disk(Coord{}, 2) {
		cx, cy := l.Center(c)
		for i := 0; i < 50; i++ {
			r := src.Float64() * inradius * 0.95
			theta := src.Float64() * 2 * math.Pi
			x := cx + r*math.Cos(theta)
			y := cy + r*math.Sin(theta)
			if got := l.CellAt(x, y); got != c {
				t.Fatalf("point (%v,%v) inside cell %v mapped to %v", x, y, c, got)
			}
		}
	}
}

func TestNeighborCentersEquidistant(t *testing.T) {
	l := NewLayout(500)
	cx, cy := l.Center(Coord{})
	want := 500 * math.Sqrt(3) // centre spacing of pointy-top hexes
	for _, nb := range (Coord{}).Neighbors() {
		x, y := l.Center(nb)
		d := math.Hypot(x-cx, y-cy)
		if math.Abs(d-want) > 1e-9 {
			t.Errorf("neighbor %v centre distance = %v, want %v", nb, d, want)
		}
	}
}

func TestNewLayoutPanics(t *testing.T) {
	for _, size := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		size := size
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLayout(%v) did not panic", size)
				}
			}()
			NewLayout(size)
		}()
	}
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{in: 0, want: 0},
		{in: 180, want: 180},
		{in: -180, want: 180},
		{in: 181, want: -179},
		{in: -181, want: 179},
		{in: 360, want: 0},
		{in: 540, want: 180},
		{in: -540, want: 180},
		{in: 90, want: 90},
		{in: 720 + 45, want: 45},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBearingDeg(t *testing.T) {
	tests := []struct {
		name           string
		fx, fy, tx, ty float64
		want           float64
	}{
		{name: "east", fx: 0, fy: 0, tx: 1, ty: 0, want: 0},
		{name: "north", fx: 0, fy: 0, tx: 0, ty: 1, want: 90},
		{name: "west", fx: 0, fy: 0, tx: -1, ty: 0, want: 180},
		{name: "south", fx: 0, fy: 0, tx: 0, ty: -1, want: -90},
		{name: "northeast", fx: 0, fy: 0, tx: 1, ty: 1, want: 45},
		{name: "coincident", fx: 3, fy: 4, tx: 3, ty: 4, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BearingDeg(tt.fx, tt.fy, tt.tx, tt.ty); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("BearingDeg = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAngleOff(t *testing.T) {
	tests := []struct {
		name    string
		heading float64
		want    float64
	}{
		{name: "straight at target", heading: 0, want: 0},
		{name: "directly away", heading: 180, want: 180},
		{name: "right angle left", heading: 90, want: 90},
		{name: "right angle right", heading: -90, want: -90},
		{name: "wrapped heading", heading: 350, want: -10},
	}
	// Target due east of the mobile.
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := AngleOff(tt.heading, 0, 0, 100, 0)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("AngleOff(%v) = %v, want %v", tt.heading, got, tt.want)
			}
		})
	}
}

// Property: NormalizeAngle output is always in (-180, 180] and congruent
// to the input mod 360.
// TestNormalizeAngleMatchesModForm pins the |deg| < 360 fast path to the
// plain math.Mod form bit for bit, signed zeros and non-finite inputs
// included.
func TestNormalizeAngleMatchesModForm(t *testing.T) {
	modForm := func(deg float64) float64 {
		deg = math.Mod(deg, 360)
		switch {
		case deg > 180:
			return deg - 360
		case deg <= -180:
			return deg + 360
		default:
			return deg
		}
	}
	below360 := math.Nextafter(360, 0)
	inputs := []float64{
		0, math.Copysign(0, -1), 180, -180, below360, -below360, 360, -360,
		540, -540, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	src := rng.New(7)
	for i := 0; i < 100000; i++ {
		inputs = append(inputs, src.Uniform(-1000, 1000))
	}
	for _, in := range inputs {
		got, want := NormalizeAngle(in), modForm(in)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeAngle(%v) = %v (bits %#x), math.Mod form gives %v (bits %#x)",
				in, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestQuickNormalizeAngle(t *testing.T) {
	f := func(deg float64) bool {
		if math.IsNaN(deg) || math.IsInf(deg, 0) {
			return true
		}
		deg = math.Mod(deg, 1e6)
		got := NormalizeAngle(deg)
		if got <= -180 || got > 180 {
			return false
		}
		diff := math.Mod(got-deg, 360)
		if diff < 0 {
			diff += 360
		}
		return diff < 1e-6 || diff > 360-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CellAt is total — every point maps to a cell whose centre is
// within one circumradius.
func TestQuickCellAtTotal(t *testing.T) {
	l := NewLayout(250)
	f := func(xr, yr float64) bool {
		x := math.Mod(xr, 10000)
		y := math.Mod(yr, 10000)
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		c := l.CellAt(x, y)
		cx, cy := l.Center(c)
		return math.Hypot(x-cx, y-cy) <= 250+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hex distance satisfies the triangle inequality.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(q1, r1, q2, r2, q3, r3 int8) bool {
		a := Coord{Q: int(q1), R: int(r1)}
		b := Coord{Q: int(q2), R: int(r2)}
		c := Coord{Q: int(q3), R: int(r3)}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
