package optimal

import (
	"fmt"
	"sync"

	"facsp/internal/cac"
	"facsp/internal/ledger"
)

// Controller serves a solved Policy as a cac.Controller: the cell state
// lives in a shared ledger.ClassLedger (the same account the baseline
// schemes run on) and every Admit is one lock-guarded table lookup — no
// inference, no allocation.
type Controller struct {
	policy *Policy
	led    *ledger.ClassLedger
}

var (
	_ cac.Controller = (*Controller)(nil)
	_ cac.Named      = (*Controller)(nil)
)

// New solves cfg and returns a controller serving the resulting policy.
// Construction runs value iteration (milliseconds at the paper's 40 BU
// cell); use ForCapacity to share solved policies across cells.
func New(cfg Config) (*Controller, error) {
	p, err := Solve(cfg)
	if err != nil {
		return nil, err
	}
	return NewFromPolicy(p)
}

// NewFromPolicy returns a fresh controller (own cell state) serving an
// already solved policy. Controllers built from the same policy share the
// immutable tables but never the ledger.
func NewFromPolicy(p *Policy) (*Controller, error) {
	if p == nil {
		return nil, fmt.Errorf("optimal: nil policy")
	}
	led, err := ledger.NewClassLedger(p.capacity, p.bws)
	if err != nil {
		return nil, fmt.Errorf("optimal: %w", err)
	}
	return &Controller{policy: p, led: led}, nil
}

// policyCache shares solved default-model policies across cells of the
// same capacity: scenario sweeps build thousands of per-cell controllers,
// and the policy depends only on the capacity.
var policyCache sync.Map // float64 capacity -> *Policy

// ForCapacity returns a controller for the default model at the given
// capacity, solving it on first use and caching the policy per capacity.
func ForCapacity(capacity float64) (*Controller, error) {
	if got, ok := policyCache.Load(capacity); ok {
		return NewFromPolicy(got.(*Policy))
	}
	p, err := Solve(DefaultConfig(capacity))
	if err != nil {
		return nil, err
	}
	got, _ := policyCache.LoadOrStore(capacity, p)
	return NewFromPolicy(got.(*Policy))
}

// Policy exposes the controller's solved policy, so tests can check that
// controllers of one capacity share a single cached solve.
func (c *Controller) Policy() *Policy { return c.policy }

// SchemeName implements cac.Named.
func (c *Controller) SchemeName() string { return "optimal" }

// Capacity implements cac.Controller.
func (c *Controller) Capacity() float64 { return c.led.Capacity() }

// Occupancy implements cac.Controller.
func (c *Controller) Occupancy() float64 { return c.led.Used() }

// classOf maps a request to the model class with the nearest per-call
// bandwidth. The simulator and the wire protocol only produce the exact
// class bandwidths, so this is an identity in practice; nearest-match
// keeps hand-built requests from panicking.
func (c *Controller) classOf(bw float64) int {
	best, bestDist := 0, -1.0
	for k, b := range c.policy.bws {
		d := b - bw
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// Admit implements cac.Controller: one table lookup at the ledger's
// current per-class counts, under the ledger lock so the decision and the
// reservation are atomic.
func (c *Controller) Admit(req cac.Request) cac.Decision {
	if err := req.Validate(); err != nil {
		return cac.Decision{Accept: false, Score: -1, Outcome: "error: " + err.Error(), Occupancy: c.led.Used()}
	}
	k := c.classOf(req.Bandwidth)
	kind := k
	if req.Handoff {
		kind += len(c.policy.bws)
	}
	policyReject := false
	used, ok := c.led.ReserveIf(k, req.Bandwidth, func(counts []int) bool {
		idx := c.policy.index(counts)
		if idx < 0 || counts[k]+1 >= c.policy.dims[k] {
			return false
		}
		if !c.policy.admit[kind][idx] {
			policyReject = true
			return false
		}
		return true
	})
	if !ok {
		outcome := "capacity"
		if policyReject {
			outcome = "threshold"
		}
		return cac.Decision{Accept: false, Score: -1, Outcome: outcome, Occupancy: used}
	}
	return cac.Decision{Accept: true, Score: 1, Outcome: "fits", Occupancy: used}
}

// Release implements cac.Controller.
func (c *Controller) Release(req cac.Request) error {
	return c.led.Release(c.classOf(req.Bandwidth), req.Bandwidth)
}
