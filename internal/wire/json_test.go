package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mcn/internal/core"
	"mcn/internal/graph"
)

// The reflection reference: mirrors of the envelopes without their Marshaler
// methods, rendered by json.NewEncoder. refCosts keeps the Costs rule as it
// was written for encoding/json, in a strings.Builder, and refScore renders a
// non-finite score as null by the same rule.
type (
	refCosts    []float64
	refScore    float64
	refFacility struct {
		ID    graph.FacilityID `json:"id"`
		Costs refCosts         `json:"costs"`
		Score refScore         `json:"score,omitempty"`
	}
	refResult struct {
		Query      string        `json:"query"`
		Count      int           `json:"count"`
		Facilities []refFacility `json:"facilities"`
		Stats      core.Stats    `json:"stats"`
		LatencyMS  float64       `json:"latency_ms"`
	}
	refInterval struct {
		From       float64       `json:"from"`
		To         float64       `json:"to"`
		Count      int           `json:"count"`
		Facilities []refFacility `json:"facilities"`
		Stats      core.Stats    `json:"stats"`
	}
	refPeriod struct {
		Query     string        `json:"query"`
		Count     int           `json:"count"`
		Intervals []refInterval `json:"intervals"`
		LatencyMS float64       `json:"latency_ms"`
	}
)

func (c refCosts) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteString("null")
		} else {
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	b.WriteByte(']')
	return []byte(b.String()), nil
}

func (s refScore) MarshalJSON() ([]byte, error) {
	if f := float64(s); math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(s))
}

func refFacilities(fs []Facility) []refFacility {
	if fs == nil {
		return nil
	}
	out := make([]refFacility, len(fs))
	for i, f := range fs {
		out[i] = refFacility{ID: f.ID, Costs: refCosts(f.Costs), Score: refScore(f.Score)}
	}
	return out
}

// reference renders a *Result, *PeriodResult or *Facility through
// encoding/json's reflection, trailing newline included.
func reference(v any) (string, error) {
	switch v := v.(type) {
	case *Result:
		return encodeRef(refResult{v.Query, v.Count, refFacilities(v.Facilities), v.Stats, v.LatencyMS})
	case *PeriodResult:
		ref := refPeriod{Query: v.Query, Count: v.Count, LatencyMS: v.LatencyMS}
		if v.Intervals != nil {
			ref.Intervals = make([]refInterval, len(v.Intervals))
		}
		for i, iv := range v.Intervals {
			ref.Intervals[i] = refInterval{iv.From, iv.To, iv.Count, refFacilities(iv.Facilities), iv.Stats}
		}
		return encodeRef(ref)
	case *Facility:
		return encodeRef(refFacilities([]Facility{*v})[0])
	}
	panic(fmt.Sprintf("no reference for %T", v))
}

func encodeRef(v any) (string, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.String(), err
}

// appendEnvelope is the appender for v.
func appendEnvelope(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case *Result:
		return AppendResult(dst, v)
	case *PeriodResult:
		return AppendPeriodResult(dst, v)
	default:
		return AppendFacility(dst, v.(*Facility)), nil
	}
}

// checkEnvelope requires the appender, json.Marshal (through the Marshaler
// methods) and Write to reproduce the reference's bytes — or its error.
func checkEnvelope(t *testing.T, v any) {
	t.Helper()
	want, wantErr := reference(v)
	got, err := appendEnvelope([]byte("prefix"), v)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%+v: append error %v, want %v", v, err, wantErr)
		}
		if _, merr := json.Marshal(v); merr == nil {
			t.Fatalf("%+v: json.Marshal succeeded, want an error", v)
		}
		return
	}
	if err != nil {
		t.Fatalf("%+v: append error %v, reference %s", v, err, want)
	}
	if got := string(got[len("prefix"):]) + "\n"; got != want {
		t.Fatalf("append differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	viaMarshal, err := json.Marshal(v)
	if err != nil || string(viaMarshal)+"\n" != want {
		t.Fatalf("json.Marshal = %s (%v), want %s", viaMarshal, err, want)
	}
	if _, ok := v.(*Facility); ok {
		return
	}
	rec := httptest.NewRecorder()
	Write(rec, ModeJSON, http.StatusOK, v)
	if rec.Body.String() != want || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("Write body %q (Content-Length %s), want %q", rec.Body.String(), rec.Header().Get("Content-Length"), want)
	}
}

// labels is every envelope Query label plus strings that are not one: empty,
// HTML-escaped and invalid UTF-8, which take encoding/json's string rule.
func labels() []string {
	out := []string{"", "<a&b>", "tab\there", "\xff "}
	for _, name := range queryNames {
		out = append(out, name)
	}
	return out
}

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1 + 0.2, 123456.789,
	1e-6, 9.99e-7, 1e-7, -1e-7, 1e-300, 5e-324, 2.2250738585072014e-308,
	1e20, 1e21, -1e21, 1.7976931348623157e308,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// Every envelope renders byte for byte as encoding/json renders the same
// struct: the float rules, score omitted at ±0 and null when not finite, nil
// lists as null, empty as [], ragged cost widths, the largest facility id,
// every label — and where encoding/json refuses a non-finite latency or
// bound, the same error.
func TestJSONEnvelopeMatchesEncodingJSON(t *testing.T) {
	stats := core.Stats{Pops: 1, GrowingPops: 2, NodeExpansions: 3, PrunedNodes: 4, Tracked: 5}
	for i, label := range labels() {
		checkEnvelope(t, &Result{Query: label, Count: i})
		checkEnvelope(t, &PeriodResult{Query: label, Count: i})
	}
	for i, f := range edgeFloats {
		fs := []Facility{
			{ID: math.MaxUint32, Costs: Costs(edgeFloats), Score: f},
			{ID: 0, Costs: nil},
			{ID: 7, Costs: Costs{}, Score: 1},
			{ID: 8, Costs: Costs{f, f}, Score: -f},
		}
		for _, v := range []any{
			&fs[0], &fs[3],
			&Result{Query: "skyline", Count: len(fs), Facilities: fs, Stats: stats, LatencyMS: 0.25},
			&Result{Query: "topk", Facilities: []Facility{}, LatencyMS: f},
			&PeriodResult{Query: "skyline_over_period", Count: 3, LatencyMS: 0.5, Intervals: []Interval{
				{From: f, To: 1},
				{From: 0, To: f, Facilities: []Facility{}, Stats: stats},
				{From: 1, To: 2, Count: len(fs), Facilities: fs},
			}},
			&PeriodResult{Query: "topk_over_period", Intervals: []Interval{}, LatencyMS: f},
		} {
			t.Run(strconv.Itoa(i), func(t *testing.T) { checkEnvelope(t, v) })
		}
	}
}

// The NDJSON done-line is the map encoding/json rendered before.
func TestStreamDoneMatchesEncodingJSON(t *testing.T) {
	for _, f := range edgeFloats {
		want, wantErr := encodeRef(map[string]any{"done": true, "count": 3, "latency_ms": f})
		got, err := AppendStreamDone(nil, 3, f)
		if (err != nil) != (wantErr != nil) || err == nil && string(got)+"\n" != want {
			t.Fatalf("latency %v: %s (%v), want %s (%v)", f, got, err, want, wantErr)
		}
	}
}

// envelopeFromBytes builds a Result or PeriodResult from fuzz input: every
// float is eight raw bytes, so NaN payloads, subnormals and extremes all
// occur.
func envelopeFromBytes(data []byte) any {
	take := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	u8 := func() int { return int(take(1)[0]) }
	f64 := func() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(take(8))) }
	names := labels()
	facilities := func() []Facility {
		n := u8() % 5
		if n == 4 {
			return nil
		}
		fs := make([]Facility, n)
		for i := range fs {
			fs[i].ID = graph.FacilityID(binary.LittleEndian.Uint32(take(4)))
			if d := u8() % 5; d < 4 {
				fs[i].Costs = make(Costs, d)
			}
			for j := range fs[i].Costs {
				fs[i].Costs[j] = f64()
			}
			if u8()%2 == 0 {
				fs[i].Score = f64()
			}
		}
		return fs
	}
	stats := func() core.Stats {
		return core.Stats{Pops: u8(), GrowingPops: u8(), NodeExpansions: u8() << 8, PrunedNodes: u8(), Tracked: u8()}
	}
	head := u8()
	query := names[head>>1%len(names)]
	if head%2 == 0 {
		r := &Result{Query: query, Count: u8(), Facilities: facilities(), Stats: stats()}
		r.LatencyMS = f64()
		return r
	}
	pr := &PeriodResult{Query: query, Count: u8()}
	if n := u8() % 4; n < 3 {
		pr.Intervals = make([]Interval, n)
	}
	for i := range pr.Intervals {
		pr.Intervals[i] = Interval{From: f64(), To: f64(), Count: u8(), Facilities: facilities(), Stats: stats()}
	}
	pr.LatencyMS = f64()
	return pr
}

// FuzzJSONEnvelope holds the byte-identity of TestJSONEnvelopeMatchesEncodingJSON
// over arbitrary envelopes.
func FuzzJSONEnvelope(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEnvelope(t, envelopeFromBytes(data))
	})
}

// The appender renders a 20-facility result into a warm buffer without
// allocating.
func TestAppendResultAllocs(t *testing.T) {
	res := &Result{Query: "skyline", Count: 20, LatencyMS: 0.125}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		res.Facilities = append(res.Facilities, Facility{
			ID:    graph.FacilityID(rng.Intn(1 << 20)),
			Costs: Costs{rng.Float64() * 100, rng.Float64() * 100, math.NaN(), math.Inf(1)},
			Score: rng.Float64() * 10,
		})
	}
	buf, err := AppendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendResult(buf[:0], res) }); n != 0 {
		t.Errorf("AppendResult allocates %.1f times per call, want 0", n)
	}
}

// Write renders the body before the status goes out: a value the mode cannot
// encode is a 500 "internal encoding failure" in that mode, never a 200 with
// an empty body. A query envelope always encodes: a NaN score is null in
// JSON and NDJSON, and MCNB carries it as float32.
func TestWriteEncodingFailure(t *testing.T) {
	nanScore := &Result{Query: "topk", Count: 1, Facilities: []Facility{{ID: 1, Costs: Costs{1}, Score: math.NaN()}}}
	for _, tc := range []struct {
		mode   Mode
		v      any
		status int
	}{
		{ModeJSON, map[string]any{"ch": make(chan int)}, http.StatusInternalServerError},
		{ModeJSON, nanScore, http.StatusOK},
		{ModeNDJSON, nanScore, http.StatusOK},
		{ModeBinary, map[string]any{"status": "ok"}, http.StatusInternalServerError},
		{ModeBinary, nanScore, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		Write(rec, tc.mode, http.StatusOK, tc.v)
		if rec.Code != tc.status {
			t.Errorf("mode %d %T: status %d, want %d", tc.mode, tc.v, rec.Code, tc.status)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("mode %d %T: Content-Length %s for a %d-byte body", tc.mode, tc.v, cl, rec.Body.Len())
		}
		if tc.status == http.StatusOK {
			continue
		}
		msg := ""
		if tc.mode == ModeBinary {
			if resp, err := DecodeResponse(rec.Body.Bytes()[lenPrefixLen:]); err == nil {
				msg = resp.Message
			}
		} else {
			var e Error
			json.Unmarshal(rec.Body.Bytes(), &e) //nolint:errcheck // an empty message fails below
			msg = e.Error
		}
		if msg != "internal encoding failure" {
			t.Errorf("mode %d %T: body %q, want the internal encoding failure error", tc.mode, tc.v, rec.Body.String())
		}
	}
}
