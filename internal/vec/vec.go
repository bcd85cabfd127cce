// Package vec provides cost vectors and dominance tests for multi-cost
// networks. A cost vector holds one value per cost type; smaller is always
// better. Unknown components are represented by NaN and positive infinity
// marks unreachable components.
package vec

import (
	"fmt"
	"math"
	"strings"
)

// Costs is a vector of d cost values, one per cost type. All operations treat
// smaller values as preferable.
type Costs []float64

// IsUnknown reports whether v is the unknown sentinel.
func IsUnknown(v float64) bool { return math.IsNaN(v) }

// New returns a length-d vector with every component unknown.
func New(d int) Costs {
	c := make(Costs, d)
	for i := range c {
		c[i] = math.NaN()
	}
	return c
}

// Of builds a cost vector from the given values.
func Of(vals ...float64) Costs { return Costs(vals) }

// Clone returns an independent copy of c.
func (c Costs) Clone() Costs {
	out := make(Costs, len(c))
	copy(out, c)
	return out
}

// Complete reports whether every component of c is known.
func (c Costs) Complete() bool {
	for _, v := range c {
		if math.IsNaN(v) {
			return false
		}
	}
	return true
}

// Dominates reports whether c dominates o: every component of c is no larger
// than the corresponding component of o, and at least one is strictly
// smaller. Both vectors must be complete and of equal length; the caller is
// expected to guarantee this.
func (c Costs) Dominates(o Costs) bool {
	strict := false
	for i, v := range c {
		if v > o[i] {
			return false
		}
		if v < o[i] {
			strict = true
		}
	}
	return strict
}

// WeaklyDominates reports whether every component of c is no larger than the
// corresponding component of o (equality everywhere counts).
func (c Costs) WeaklyDominates(o Costs) bool {
	for i, v := range c {
		if v > o[i] {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality. Unknown components compare equal to
// unknown components only.
func (c Costs) Equal(o Costs) bool {
	if len(c) != len(o) {
		return false
	}
	for i, v := range c {
		switch {
		case math.IsNaN(v) && math.IsNaN(o[i]):
		case v == o[i]:
		default:
			return false
		}
	}
	return true
}

// DominatesKnown reports whether complete vector c dominates partially known
// vector o, using only o's known components for the comparison and requiring
// a strict improvement on at least one of them. This is the safe elimination
// test of LSA's shrinking stage: o's unknown components are guaranteed (by
// the incremental expansion order) to be no smaller than c's corresponding
// components, so weak dominance on the known components plus one strict win
// implies full dominance.
func (c Costs) DominatesKnown(o Costs) bool {
	strict := false
	for i, v := range o {
		if math.IsNaN(v) {
			continue
		}
		if c[i] > v {
			return false
		}
		if c[i] < v {
			strict = true
		}
	}
	return strict
}

// FillUnknown returns a copy of c where every unknown component i is replaced
// by floor[i]. Used to compute aggregate-cost lower bounds from expansion
// frontiers.
func (c Costs) FillUnknown(floor Costs) Costs {
	out := c.Clone()
	for i, v := range out {
		if math.IsNaN(v) {
			out[i] = floor[i]
		}
	}
	return out
}

// Add returns c + o component-wise.
func (c Costs) Add(o Costs) Costs {
	out := make(Costs, len(c))
	for i := range c {
		out[i] = c[i] + o[i]
	}
	return out
}

// Scale returns c scaled by the factor s.
func (c Costs) Scale(s float64) Costs {
	out := make(Costs, len(c))
	for i := range c {
		out[i] = c[i] * s
	}
	return out
}

// String formats the vector with unknown components rendered as "?".
func (c Costs) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range c {
		if i > 0 {
			b.WriteString(", ")
		}
		if math.IsNaN(v) {
			b.WriteByte('?')
		} else {
			fmt.Fprintf(&b, "%g", v)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Validate returns an error if any known component is negative. MCN edge
// costs are non-negative by definition (paper Sec. III).
func (c Costs) Validate() error {
	for i, v := range c {
		if !math.IsNaN(v) && v < 0 {
			return fmt.Errorf("cost %d is negative (%g)", i, v)
		}
	}
	return nil
}
