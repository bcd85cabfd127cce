package gen

import (
	"fmt"
	"math"
	"math/rand"

	"mcn/internal/vec"
)

// Distribution selects how the d costs of an edge relate to each other,
// following the standard skyline-benchmark distributions of Börzsönyi et
// al. that the paper adopts (Sec. VI): in Correlated, when one cost is low
// the others tend to be low; in AntiCorrelated, when one is low the rest
// tend to be high.
type Distribution int

// Supported edge-cost distributions.
const (
	Independent Distribution = iota
	Correlated
	AntiCorrelated
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Independent:
		return "independent"
	case Correlated:
		return "correlated"
	case AntiCorrelated:
		return "anti-correlated"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ParseDistribution converts a string (as used in CLI flags) to a
// Distribution.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "independent", "ind", "uniform":
		return Independent, nil
	case "correlated", "corr":
		return Correlated, nil
	case "anti-correlated", "anticorrelated", "anti":
		return AntiCorrelated, nil
	default:
		return 0, fmt.Errorf("gen: unknown distribution %q (want independent|correlated|anti-correlated)", s)
	}
}

// costFloor keeps every generated multiplier strictly positive so that edge
// costs remain valid MCN weights.
const costFloor = 0.02

// AssignCosts draws one d-dimensional cost vector per edge of t. Every cost
// is the edge's Euclidean length scaled by a distribution-specific
// multiplier with mean ≈ 1, preserving the "network metric" character of
// each cost type (longer segments cost more on average in every dimension).
func AssignCosts(t *Topology, d int, dist Distribution, rng *rand.Rand) []vec.Costs {
	if d < 1 {
		panic(fmt.Sprintf("gen: d must be positive, got %d", d))
	}
	out := make([]vec.Costs, t.NumEdges())
	for e := range out {
		out[e] = multipliers(d, dist, rng).Scale(t.Len[e])
	}
	return out
}

// multipliers draws a d-vector of strictly positive multipliers under dist.
func multipliers(d int, dist Distribution, rng *rand.Rand) vec.Costs {
	m := make(vec.Costs, d)
	switch dist {
	case Independent:
		for i := range m {
			m[i] = costFloor + rng.Float64()*(2-2*costFloor)
		}
	case Correlated:
		base := costFloor + rng.Float64()*(2-2*costFloor)
		for i := range m {
			v := base + (rng.Float64()*2-1)*0.15
			m[i] = math.Max(costFloor, v)
		}
	case AntiCorrelated:
		// Spread a fixed per-edge budget across the d dimensions using a
		// Dirichlet(1,…,1) direction: a dimension that receives a small
		// share forces the others to receive large shares.
		budget := float64(d) * (0.8 + rng.NormFloat64()*0.12)
		if budget < float64(d)*0.3 {
			budget = float64(d) * 0.3
		}
		sum := 0.0
		for i := range m {
			m[i] = -math.Log(1 - rng.Float64())
			sum += m[i]
		}
		for i := range m {
			m[i] = math.Max(costFloor, budget*m[i]/sum)
		}
	default:
		panic(fmt.Sprintf("gen: unknown distribution %d", int(dist)))
	}
	return m
}

// RandomIntegerCosts draws small integer costs in [1, maxCost] independently
// per dimension. Integer costs deliberately produce ties, exercising the
// tie-robust paths of the query algorithms in property tests.
func RandomIntegerCosts(t *Topology, d, maxCost int, rng *rand.Rand) []vec.Costs {
	out := make([]vec.Costs, t.NumEdges())
	for e := range out {
		c := make(vec.Costs, d)
		for i := range c {
			c[i] = float64(1 + rng.Intn(maxCost))
		}
		out[e] = c
	}
	return out
}
