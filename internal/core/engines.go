package core

import (
	"fmt"
	"reflect"
	"sync"

	"facsp/internal/fuzzy"
)

// engineKey identifies one shareable FLC1/FLC2 pair. The paper's rule bases
// are static, so two controllers with the same integration density and
// defuzzifier value get bit-identical engines; building the pair once per
// process instead of once per cell controller keeps controller construction
// cheap and the grade tables out of every controller's memory. As for
// surfaceKey, only comparable defuzzifiers are keyed.
type engineKey struct {
	samples int
	defuzz  fuzzy.Defuzzifier
}

type enginePair struct {
	once       sync.Once
	flc1, flc2 *fuzzy.Engine
	err        error
}

var engineCache = struct {
	mu sync.Mutex
	m  map[engineKey]*enginePair
}{m: make(map[engineKey]*enginePair)}

// flcPair returns the paper's FLC1 and FLC2 built with the given
// integration density (non-positive selects fuzzy.DefaultSamples) and
// defuzzifier (nil selects Centroid). The pair is shared process-wide:
// engines are immutable and safe for concurrent use. A defuzzifier of a
// non-comparable type cannot be keyed and builds a private pair.
func flcPair(samples int, defuzz fuzzy.Defuzzifier) (flc1, flc2 *fuzzy.Engine, err error) {
	if samples <= 0 {
		samples = fuzzy.DefaultSamples
	}
	if defuzz != nil && !reflect.TypeOf(defuzz).Comparable() {
		p := &enginePair{}
		p.build(samples, defuzz)
		return p.flc1, p.flc2, p.err
	}
	key := engineKey{samples: samples, defuzz: defuzz}
	engineCache.mu.Lock()
	p, ok := engineCache.m[key]
	if !ok {
		p = &enginePair{}
		engineCache.m[key] = p
	}
	engineCache.mu.Unlock()
	p.once.Do(func() { p.build(samples, defuzz) })
	return p.flc1, p.flc2, p.err
}

func (p *enginePair) build(samples int, defuzz fuzzy.Defuzzifier) {
	opts := []fuzzy.Option{fuzzy.WithSamples(samples)}
	if defuzz != nil {
		opts = append(opts, fuzzy.WithDefuzzifier(defuzz))
	}
	if p.flc1, p.err = NewFLC1(opts...); p.err != nil {
		p.err = fmt.Errorf("core: building FLC1: %w", p.err)
		return
	}
	if p.flc2, p.err = NewFLC2(opts...); p.err != nil {
		p.err = fmt.Errorf("core: building FLC2: %w", p.err)
	}
}
