package vec

import (
	"fmt"
	"math"
)

// Aggregate is an increasingly monotone scoring function over complete cost
// vectors: if c weakly dominates o then Score(c) <= Score(o). Top-k queries
// minimise the aggregate score.
type Aggregate interface {
	// Score maps a complete cost vector to its aggregate cost.
	Score(Costs) float64
	// Dims returns the number of cost types the function expects.
	Dims() int
}

// Weighted is the linear aggregate f(p) = Σ αᵢ·cᵢ(p) used throughout the
// paper's evaluation (Sec. VI, coefficients αᵢ ∈ [0, 1]).
type Weighted struct {
	Coef []float64
}

// NewWeighted returns a linear aggregate with the given non-negative
// coefficients. It panics if any coefficient is negative, since that would
// break monotonicity.
func NewWeighted(coef ...float64) Weighted {
	for i, a := range coef {
		if a < 0 || math.IsNaN(a) {
			panic(fmt.Sprintf("vec: weighted aggregate coefficient %d is %g; must be non-negative", i, a))
		}
	}
	return Weighted{Coef: coef}
}

// Score implements Aggregate.
func (w Weighted) Score(c Costs) float64 {
	s := 0.0
	for i, a := range w.Coef {
		if a == 0 {
			continue // avoid 0·(+Inf) = NaN for unreachable components
		}
		s += a * c[i]
	}
	return s
}

// Dims implements Aggregate.
func (w Weighted) Dims() int { return len(w.Coef) }

// MaxAgg is the increasingly monotone aggregate f(p) = max_i αᵢ·cᵢ(p)
// (weighted Chebyshev). It is useful when the worst criterion should drive
// the ranking, e.g. "the slowest commuter group determines suitability".
type MaxAgg struct {
	Coef []float64
}

// NewMax returns a weighted-maximum aggregate. Coefficients must be
// non-negative.
func NewMax(coef ...float64) MaxAgg {
	for i, a := range coef {
		if a < 0 || math.IsNaN(a) {
			panic(fmt.Sprintf("vec: max aggregate coefficient %d is %g; must be non-negative", i, a))
		}
	}
	return MaxAgg{Coef: coef}
}

// Score implements Aggregate.
func (m MaxAgg) Score(c Costs) float64 {
	s := 0.0
	for i, a := range m.Coef {
		if a == 0 {
			continue // avoid 0·(+Inf) = NaN for unreachable components
		}
		if v := a * c[i]; v > s {
			s = v
		}
	}
	return s
}

// Dims implements Aggregate.
func (m MaxAgg) Dims() int { return len(m.Coef) }

// Func adapts a plain function to the Aggregate interface. The caller is
// responsible for the function being increasingly monotone.
type Func struct {
	D int
	F func(Costs) float64
}

// Score implements Aggregate.
func (f Func) Score(c Costs) float64 { return f.F(c) }

// Dims implements Aggregate.
func (f Func) Dims() int { return f.D }
