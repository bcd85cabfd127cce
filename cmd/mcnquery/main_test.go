package main

import "testing"

func TestParseWeights(t *testing.T) {
	agg, err := parseWeights("0.5, 0.3 ,0.2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Dims() != 3 {
		t.Errorf("dims = %d", agg.Dims())
	}
	if got := agg.Score([]float64{1, 1, 1}); got != 1.0 {
		t.Errorf("score = %g, want 1.0", got)
	}
}

func TestParseWeightsDefault(t *testing.T) {
	agg, err := parseWeights("", 4)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Dims() != 4 {
		t.Errorf("dims = %d", agg.Dims())
	}
	if got := agg.Score([]float64{1, 2, 3, 4}); got != 10 {
		t.Errorf("uniform default score = %g, want 10", got)
	}
}

func TestParseWeightsErrors(t *testing.T) {
	if _, err := parseWeights("1,2", 3); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := parseWeights("1,x,3", 3); err == nil {
		t.Error("non-numeric weight accepted")
	}
	// vec.NewWeighted panics on a negative or NaN coefficient; parseWeights
	// must turn them, and +Inf, into errors first.
	for _, s := range []string{"1,-0.5,3", "1,NaN,3", "1,+Inf,3", "1,inf,3"} {
		if _, err := parseWeights(s, 3); err == nil {
			t.Errorf("parseWeights(%q) accepted", s)
		}
	}
}
