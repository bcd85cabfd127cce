package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	tests := []struct {
		name string
		a, b Costs
		want bool
	}{
		{"strictly smaller everywhere", Of(1, 2), Of(2, 3), true},
		{"smaller in one, equal other", Of(1, 3), Of(2, 3), true},
		{"equal vectors", Of(1, 2), Of(1, 2), false},
		{"incomparable", Of(1, 5), Of(2, 3), false},
		{"strictly larger", Of(3, 4), Of(1, 2), false},
		{"single dim smaller", Of(1), Of(2), true},
		{"single dim equal", Of(2), Of(2), false},
		{"zero costs", Of(0, 0), Of(0, 1), true},
		{"inf dominated by finite", Of(1, 1), Of(1, math.Inf(1)), true},
		{"inf vs inf equal", Of(math.Inf(1), 1), Of(math.Inf(1), 1), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Dominates(tc.b); got != tc.want {
				t.Errorf("%v.Dominates(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestWeaklyDominates(t *testing.T) {
	if !Of(1, 2).WeaklyDominates(Of(1, 2)) {
		t.Error("equal vectors must weakly dominate each other")
	}
	if Of(1, 3).WeaklyDominates(Of(1, 2)) {
		t.Error("larger component must break weak dominance")
	}
	if !Of(0, 0).WeaklyDominates(Of(5, 5)) {
		t.Error("smaller everywhere must weakly dominate")
	}
}

func TestDominanceIrreflexive(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := Costs(raw)
		for i := range c {
			c[i] = math.Abs(c[i])
		}
		return !c.Dominates(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDominanceAntisymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		d := 1 + rng.Intn(5)
		a, b := make(Costs, d), make(Costs, d)
		for i := 0; i < d; i++ {
			a[i] = float64(rng.Intn(4))
			b[i] = float64(rng.Intn(4))
		}
		if a.Dominates(b) && b.Dominates(a) {
			t.Fatalf("both %v and %v dominate each other", a, b)
		}
	}
}

func TestDominanceTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		d := 1 + rng.Intn(4)
		a, b, c := make(Costs, d), make(Costs, d), make(Costs, d)
		for i := 0; i < d; i++ {
			a[i], b[i], c[i] = float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))
		}
		if a.Dominates(b) && b.Dominates(c) && !a.Dominates(c) {
			t.Fatalf("transitivity violated: %v > %v > %v but not %v > %v", a, b, c, a, c)
		}
	}
}

func TestDominatesKnown(t *testing.T) {
	full := Of(2, 3, 4)

	partial := Of(5, math.NaN(), math.NaN())
	if !full.DominatesKnown(partial) {
		t.Error("full vector should dominate partial with larger known cost")
	}

	tied := Of(2, math.NaN(), math.NaN())
	if full.DominatesKnown(tied) {
		t.Error("all-known-equal must NOT be eliminated (tie-robustness)")
	}

	better := Of(1, math.NaN(), math.NaN())
	if full.DominatesKnown(better) {
		t.Error("partial with smaller known cost cannot be dominated on knowns")
	}

	mixed := Of(2, 9, math.NaN())
	if !full.DominatesKnown(mixed) {
		t.Error("equal first + worse second known should be dominated")
	}
}

func TestUnknownHandling(t *testing.T) {
	c := New(3)
	if c.Complete() {
		t.Error("fresh vector must not be complete")
	}
	c[1] = 7
	if c.Complete() {
		t.Error("vector with unknowns must not be complete")
	}
	c[0], c[2] = 1, 2
	if !c.Complete() {
		t.Error("fully assigned vector must be complete")
	}
}

func TestFillUnknown(t *testing.T) {
	c := Of(1, math.NaN(), 3)
	floor := Of(10, 20, 30)
	got := c.FillUnknown(floor)
	want := Of(1, 20, 3)
	if !got.Equal(want) {
		t.Errorf("FillUnknown = %v, want %v", got, want)
	}
	// Original must be untouched.
	if !IsUnknown(c[1]) {
		t.Error("FillUnknown mutated its receiver")
	}
}

func TestEqual(t *testing.T) {
	if !Of(1, math.NaN()).Equal(Of(1, math.NaN())) {
		t.Error("unknown components should compare equal")
	}
	if Of(1, 2).Equal(Of(1, 2, 3)) {
		t.Error("different lengths must not be equal")
	}
	if Of(1, 2).Equal(Of(1, 3)) {
		t.Error("different values must not be equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2, 3)
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestString(t *testing.T) {
	got := Of(1, math.NaN(), 2.5).String()
	want := "(1, ?, 2.5)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestValidate(t *testing.T) {
	if err := Of(0, 1, 2).Validate(); err != nil {
		t.Errorf("non-negative vector should validate, got %v", err)
	}
	if err := Of(0, -1).Validate(); err == nil {
		t.Error("negative cost must fail validation")
	}
	if err := Of(math.NaN(), 1).Validate(); err != nil {
		t.Errorf("unknown components are allowed, got %v", err)
	}
}

func TestAddScale(t *testing.T) {
	a, b := Of(1, 5), Of(2, 3)
	if got := a.Add(b); !got.Equal(Of(3, 8)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(2); !got.Equal(Of(2, 10)) {
		t.Errorf("Scale = %v", got)
	}
}
