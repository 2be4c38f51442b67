package cellsim

import (
	"math"

	"facsp/internal/hexgrid"
	"facsp/internal/mobility"
)

// horizonMargin is the safety margin nextCheck keeps inside the inscribed
// circle, relative to the magnitude of the cell's coordinates. It absorbs
// the floating-point error of integrating positions step by step (a few
// ulps per step), so a stretch judged safe here is also inside by
// hexgrid.Layout.InCell's own arithmetic; at 1 km cells it is ~1 mm.
const horizonMargin = 1e-6

// nextCheck returns when a call's next position check is due and how many
// CheckInterval steps the mover advances at it. Per-interval polling
// checks at now+ci, now+2ci, ...; each check that finds the mobile inside
// its cell's inscribed circle (the InCell fast path) only schedules the
// next one. nextCheck skips the checks it can prove take that path: when
// the mover is Bounded and steps·MaxSpeedMS·ci stays below the distance
// from the mobile to the inscribed circle, the first steps positions
// after now are all inside, so only the check after them can see a
// crossing.
//
// The result is bit-identical to per-interval polling:
//   - at is built by the same repeated addition that chained AfterOp
//     calls perform, and the mover is advanced the same steps times, one
//     ci at a time, from the call's private stream;
//   - the horizon never extends past the first tick at or after the
//     call's end, so the ended call's trailing no-op check fires exactly
//     when per-interval polling would have fired it.
//
// Unbounded movers (mobility.GaussMarkov) are checked every interval.
func nextCheck(layout hexgrid.Layout, c *call, ci, now float64) (at float64, steps int) {
	at, steps = now+ci, 1
	b, ok := c.mover.(mobility.Bounded)
	if !ok {
		return at, steps
	}
	cx, cy := layout.Center(c.cell)
	st := c.mover.State()
	dx, dy := st.X-cx, st.Y-cy
	w := layout.Inradius()
	slack := w - math.Sqrt(dx*dx+dy*dy) - horizonMargin*(w+math.Abs(cx)+math.Abs(cy))
	stride := b.MaxSpeedMS() * ci
	for at < c.endAt && float64(steps)*stride < slack {
		at += ci
		steps++
	}
	return at, steps
}

// advance moves the call's mobile through the steps its pending check
// covers, one CheckInterval at a time, exactly as that many per-interval
// checks would have.
func (c *call) advance(ci float64) {
	for i := 0; i < c.steps; i++ {
		c.mover.Advance(ci)
	}
}
