package wire

import (
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"testing"

	"mcn/internal/core"
	"mcn/internal/vec"
)

// The wire contract the cluster gateway depends on: non-finite components
// map through null in both directions, and finite floats re-encode to
// exactly the bytes a replica wrote.
func TestCostsRoundTrip(t *testing.T) {
	x, y := 0.1, 0.2 // runtime sum: 0.30000000000000004 (constant folding would give exactly 0.3)
	in := Costs{1.5, math.NaN(), math.Inf(1), x + y}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `[1.5,null,null,0.30000000000000004]`; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var out Costs
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	if out[0] != 1.5 || !math.IsNaN(out[1]) || !math.IsNaN(out[2]) || out[3] != in[3] {
		t.Errorf("round trip = %v", out)
	}
	// Decode → re-encode is byte-stable.
	b2, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) != string(b) {
		t.Errorf("re-encode = %s, want %s", b2, b)
	}
}

func TestCostsUnmarshalError(t *testing.T) {
	var c Costs
	if err := json.Unmarshal([]byte(`{"not":"an array"}`), &c); err == nil {
		t.Error("want error for non-array costs")
	}
}

func TestFacilityConversionRoundTrip(t *testing.T) {
	in := []core.Facility{
		{ID: 7, Costs: vec.Of(1, 2, 3), Score: 6},
		{ID: 9, Costs: vec.Of(4, math.Inf(1), 5)},
	}
	back := ToFacilities(FromFacilities(in))
	if len(back) != len(in) {
		t.Fatalf("len = %d, want %d", len(back), len(in))
	}
	for i := range in {
		if back[i].ID != in[i].ID || back[i].Score != in[i].Score {
			t.Errorf("facility %d = %+v, want %+v", i, back[i], in[i])
		}
		for j, v := range in[i].Costs {
			if got := back[i].Costs[j]; got != v && !(math.IsInf(v, 1) && math.IsInf(got, 1)) {
				t.Errorf("facility %d cost %d = %v, want %v", i, j, got, v)
			}
		}
	}
}

func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, 503, Error{Error: "drained"})
	if rec.Code != 503 {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "drained" {
		t.Errorf("body = %q (%v)", rec.Body.String(), err)
	}
}

// The gateway sees only a status, so the failure table must let the status
// alone decide: StatusFailure reads every class's bits back off its status
// (so classes that share a status share their Retryable and Cools bits),
// and a status no class claims is the caller's below 500 and retryable at
// or above it. A class's message is its fixed one, or the error's own text.
// Every refusal of DecodeHTTP wraps ErrInvalid and keeps its text.
func TestFailureTableByStatus(t *testing.T) {
	for c, f := range Failures {
		if got := StatusFailure(f.Status); got.Retryable != f.Retryable || got.Cools != f.Cools {
			t.Errorf("%s: StatusFailure(%d) = %+v, bits differ from the class's %+v", f.Outcome, f.Status, got, f)
		}
		want := f.Message
		if want == "" {
			want = "own text"
		}
		if got := Class(c).Error(errors.New("own text")).Error; got != want {
			t.Errorf("%s: message %q, want %q", f.Outcome, got, want)
		}
	}
	for status, retryable := range map[int]bool{200: false, 404: false, 413: false, 502: true} {
		if f := StatusFailure(status); f.Retryable != retryable || f.Cools {
			t.Errorf("StatusFailure(%d) = %+v, want retryable %v and no cool-off", status, f, retryable)
		}
	}
	_, _, _, err := DecodeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/skyline?edge=x", nil))
	if !errors.Is(err, ErrInvalid) || err.Error() != `invalid edge "x"` {
		t.Errorf("DecodeHTTP refusal = %v, want one wrapping ErrInvalid with its own text", err)
	}
}
