package main

import (
	"math"
	"math/rand"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between the closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// reservoir keeps a uniform random sample of at most size values in fixed
// memory (Algorithm R); below size it keeps every value.
type reservoir struct {
	xs  []float64
	n   int64 // values offered
	rng *rand.Rand
}

func newReservoir(size int) *reservoir {
	return &reservoir{xs: make([]float64, 0, size), rng: rand.New(rand.NewSource(1))}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(len(r.xs)) {
		r.xs[j] = x
	}
}
