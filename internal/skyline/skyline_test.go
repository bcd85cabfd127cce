package skyline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcn/internal/vec"
)

// naive is the O(n²) reference skyline.
func naive(items []vec.Costs) []int {
	var out []int
	for i := range items {
		dominated := false
		for j := range items {
			if j != i && items[j].Dominates(items[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

func TestSkylineFixed(t *testing.T) {
	items := []vec.Costs{
		vec.Of(1, 5), // skyline
		vec.Of(2, 4), // skyline
		vec.Of(3, 4), // dominated by (2,4)
		vec.Of(5, 1), // skyline
		vec.Of(5, 5), // dominated
		vec.Of(1, 5), // duplicate of 0: both stay (neither dominates)
	}
	want := []int{0, 1, 3, 5}
	if got := BNL(items); !reflect.DeepEqual(got, want) {
		t.Errorf("BNL = %v, want %v", got, want)
	}
}

func TestSkylineEmptyAndSingle(t *testing.T) {
	if got := BNL(nil); len(got) != 0 {
		t.Errorf("BNL(nil) = %v", got)
	}
	one := []vec.Costs{vec.Of(3, 3)}
	if got := BNL(one); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("BNL(single) = %v", got)
	}
}

func TestSkylineAllEqual(t *testing.T) {
	items := []vec.Costs{vec.Of(2, 2), vec.Of(2, 2), vec.Of(2, 2)}
	want := []int{0, 1, 2}
	if got := BNL(items); !reflect.DeepEqual(got, want) {
		t.Errorf("BNL = %v, want %v", got, want)
	}
}

func TestSkylineWithInfinities(t *testing.T) {
	inf := math.Inf(1)
	items := []vec.Costs{
		vec.Of(1, inf),
		vec.Of(2, 3),
		vec.Of(inf, inf),
		vec.Of(inf, 2),
	}
	// (1,inf) and (2,3) are skyline; (inf,inf) is dominated by (2,3);
	// (inf,2) is skyline (best second dim).
	want := []int{0, 1, 3}
	if got := BNL(items); !reflect.DeepEqual(got, want) {
		t.Errorf("BNL = %v, want %v", got, want)
	}
}

// BNL must agree with the naive reference on random inputs, including
// tie-heavy integer inputs.
func TestSkylineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(4)
		n := rng.Intn(120)
		items := make([]vec.Costs, n)
		for i := range items {
			c := make(vec.Costs, d)
			for j := range c {
				if trial%2 == 0 {
					c[j] = float64(rng.Intn(6)) // ties
				} else {
					c[j] = rng.Float64() * 100
				}
			}
			items[i] = c
		}
		want := naive(items)
		if want == nil {
			want = []int{}
		}
		got := BNL(items)
		if got == nil {
			got = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: BNL = %v, want %v (items %v)", trial, got, want, items)
		}
	}
}
