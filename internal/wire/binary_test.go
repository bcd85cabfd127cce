package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"mcn/internal/core"
	"mcn/internal/graph"
)

// randomRequest draws one normalised request of any kind with randomized
// parameters, including the engine and timeout knobs — and the zeros (edge 0,
// t = 0, k = 0, from = 0) that an encoding with omitted-when-zero fields
// cannot carry.
func randomRequest(rng *rand.Rand) *Request {
	q := &Request{Kind: Kinds[rng.Intn(len(Kinds))]}
	if rng.Intn(2) == 0 {
		q.Engine = "lsa"
	}
	if rng.Intn(2) == 0 {
		q.TimeoutMS = 1 + rng.Intn(5000)
	}
	fs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Round(rng.Float64()*1000) / 100
		}
		return out
	}
	if q.Scatter() {
		n := 1 + rng.Intn(4)
		q.Edges = make([]int, n)
		for i := range q.Edges {
			q.Edges[i] = rng.Intn(600)
		}
		if rng.Intn(2) == 0 {
			q.Ts = fs(n)
		}
		q.Cost = rng.Intn(3)
	} else if rng.Intn(4) > 0 { // else edge 0, t = 0
		q.Edge = rng.Intn(600)
		q.T = math.Round(rng.Float64()*100) / 100
	}
	switch {
	case q.ranked():
		q.K = rng.Intn(9)
		if rng.Intn(2) == 0 {
			q.Weights = fs(3)
		}
	case q.Kind == KindNearest:
		q.K = rng.Intn(5)
		q.Cost = rng.Intn(3)
	case q.Kind == KindWithin:
		q.Budget = fs(3)
	}
	if q.Period() {
		q.From = float64(rng.Intn(3)) * rng.Float64() * 5 // 0 a third of the time
		q.To = q.From + rng.Float64()*10
	}
	return q
}

// decodeGET runs uri through the GET front end of DecodeHTTP.
func decodeGET(uri string) (*Request, Mode, error) {
	q, mode, _, err := DecodeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, uri, nil))
	return q, mode, err
}

// Every request — zeros included — survives each of the three encodings
// unchanged: EncodeRequest → DecodeRequest, URI → the GET decoder, and
// json.Marshal → the JSON decoder are all the identity, so the three
// decoders agree on every request any of them can carry.
func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		q := randomRequest(rng)
		frame, err := EncodeRequest(q)
		if err != nil {
			t.Fatalf("EncodeRequest(%+v): %v", q, err)
		}
		viaFrame, err := DecodeRequestBody(frame, true)
		if err != nil {
			t.Fatalf("DecodeRequestBody(frame of %+v): %v", q, err)
		}
		viaURI, mode, err := decodeGET(q.URI())
		if err != nil || mode != ModeJSON {
			t.Fatalf("GET decode of %s: mode %d, err %v", q.URI(), mode, err)
		}
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, err := DecodeRequestBody(body, false)
		if err != nil {
			t.Fatalf("DecodeRequestBody(%s): %v", body, err)
		}
		for name, got := range map[string]*Request{"MCNB": viaFrame, "GET": viaURI, "JSON": viaJSON} {
			if !reflect.DeepEqual(got, q) {
				t.Fatalf("%s round trip changed the request:\n got %+v\nwant %+v", name, got, q)
			}
		}
	}
}

// The textual decoders apply one rule per parameter: the same defaults for
// absent fields, explicit zeros kept, the same normal form.
func TestDecodeDefaultsAndNormalForm(t *testing.T) {
	same := func(uri, body string, want Request) {
		t.Helper()
		viaURI, _, err := decodeGET(uri)
		if err != nil {
			t.Fatalf("GET %s: %v", uri, err)
		}
		viaJSON, err := DecodeRequestBody([]byte(body), false)
		if err != nil {
			t.Fatalf("JSON %s: %v", body, err)
		}
		if !reflect.DeepEqual(viaURI, &want) || !reflect.DeepEqual(viaJSON, &want) {
			t.Fatalf("%s / %s decoded to\n GET  %+v\n JSON %+v\n want %+v", uri, body, viaURI, viaJSON, want)
		}
	}
	// Absent t is 0.5, absent k the kind's default; explicit zeros stay zero.
	same("/skyline?edge=3", `{"kind":"skyline","edge":3}`, Request{Kind: KindSkyline, Edge: 3, T: 0.5})
	same("/skyline?edge=0&t=0", `{"kind":"skyline","edge":0,"t":0}`, Request{Kind: KindSkyline})
	same("/topk?edge=1&t=0.25", `{"kind":"topk","edge":1,"t":0.25}`, Request{Kind: KindTopK, Edge: 1, T: 0.25, K: 4})
	same("/topk?edge=1&k=0", `{"kind":"topk","edge":1,"k":0}`, Request{Kind: KindTopK, Edge: 1, T: 0.5})
	same("/nearest?edge=1&cost=1", `{"kind":"nearest","edge":1,"cost":1}`, Request{Kind: KindNearest, Edge: 1, T: 0.5, K: 1, Cost: 1})
	same("/skyline/period?edge=1&from=0&to=9", `{"kind":"skyline/period","edge":1,"from":0,"to":9}`,
		Request{Kind: KindSkylinePeriod, Edge: 1, T: 0.5, To: 9})
	// Normal form: engine case-folded with cea as "", fields the kind does not
	// use dropped, empty lists nil, equivalent float spellings equal.
	same("/skyline?edge=3&t=0.50&engine=CEA&k=9&budget=1,2", `{"kind":"skyline","edge":3,"t":0.5,"engine":"cea","k":9,"weights":[]}`,
		Request{Kind: KindSkyline, Edge: 3, T: 0.5})
	same("/multisource/topk?edges=4,5&engine=LSA&timeout_ms=0", `{"kind":"multisource/topk","edges":[4,5],"engine":"Lsa","edge":7,"ts":[]}`,
		Request{Kind: KindMultiSourceTopK, Edges: []int{4, 5}, K: 4, Engine: "lsa"})

	// stream is a delivery switch of GET /skyline and /topk only.
	for uri, want := range map[string]Mode{
		"/skyline?edge=1&stream=1":    ModeNDJSON,
		"/topk?edge=1&stream=true":    ModeNDJSON,
		"/skyline?edge=1&stream=0":    ModeJSON,
		"/nearest?edge=1&stream=1":    ModeJSON,
		"/nearest?edge=1&stream=junk": ModeJSON,
	} {
		if _, mode, err := decodeGET(uri); err != nil || mode != want {
			t.Errorf("GET %s: mode %d err %v, want mode %d", uri, mode, err, want)
		}
	}
}

// randomResult builds a result whose cost vectors exercise the non-finite
// sentinels and values already representable in float32 (so the narrow wire
// format round-trips them exactly). d <= 0 draws a random dimension.
func randomResult(rng *rand.Rand, query string, d int) *Result {
	if d <= 0 {
		d = 1 + rng.Intn(4)
	}
	n := rng.Intn(6)
	fs := make([]Facility, n)
	for i := range fs {
		costs := make(Costs, d)
		for j := range costs {
			switch rng.Intn(5) {
			case 0:
				costs[j] = math.NaN()
			case 1:
				costs[j] = math.Inf(1)
			default:
				costs[j] = float64(float32(rng.Float64() * 100))
			}
		}
		fs[i] = Facility{
			ID:    graph.FacilityID(rng.Intn(1000)),
			Costs: costs,
			Score: float64(float32(rng.Float64() * 10)),
		}
	}
	return &Result{
		Query:      query,
		Count:      n,
		Facilities: fs,
		Stats: core.Stats{
			Pops: rng.Intn(100), GrowingPops: rng.Intn(100),
			NodeExpansions: rng.Intn(1000), PrunedNodes: rng.Intn(50), Tracked: rng.Intn(40),
		},
		LatencyMS: float64(float32(rng.Float64() * 5)),
	}
}

func sameCosts(a, b Costs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch {
		case math.IsNaN(a[i]) && math.IsNaN(b[i]):
		case a[i] == b[i]: // covers ±Inf
		default:
			return false
		}
	}
	return true
}

func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []string{"skyline", "topk", "nearest", "within", "multisource_skyline", "multisource_topk"}
	for i := 0; i < 300; i++ {
		res := randomResult(rng, queries[rng.Intn(len(queries))], 0)
		frame, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(bytes.NewReader(frame), MaxResponseFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Result
		if got == nil {
			t.Fatalf("decoded %+v, want a Result", resp)
		}
		if got.Query != res.Query || got.Count != res.Count || got.Stats != res.Stats || got.LatencyMS != res.LatencyMS {
			t.Fatalf("envelope changed:\n got %+v\nwant %+v", got, res)
		}
		for j := range res.Facilities {
			w, g := res.Facilities[j], got.Facilities[j]
			if g.ID != w.ID || g.Score != w.Score || !sameCosts(g.Costs, w.Costs) {
				t.Fatalf("facility %d changed: got %+v want %+v", j, g, w)
			}
		}
		// Re-encoding the decoded result reproduces the frame byte for byte.
		frame2, err := EncodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatal("decode→encode is not byte-identical")
		}
	}
}

func TestPeriodResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		query := "skyline_over_period"
		if rng.Intn(2) == 0 {
			query = "topk_over_period"
		}
		n := 1 + rng.Intn(4)
		pr := &PeriodResult{Query: query, Count: n, LatencyMS: float64(float32(rng.Float64() * 9))}
		from := rng.Float64()
		// One cost dimension for the whole sweep, as the network fixes d.
		d := 1 + rng.Intn(4)
		for j := 0; j < n; j++ {
			to := from + rng.Float64()*3
			inner := randomResult(rng, "skyline", d)
			pr.Intervals = append(pr.Intervals, Interval{
				From: from, To: to, Count: inner.Count,
				Facilities: inner.Facilities, Stats: inner.Stats,
			})
			from = to
		}
		frame, err := EncodePeriodResult(pr)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(bytes.NewReader(frame), MaxResponseFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Period
		if got == nil {
			t.Fatalf("decoded %+v, want a PeriodResult", resp)
		}
		if got.Query != pr.Query || got.Count != pr.Count || got.LatencyMS != pr.LatencyMS {
			t.Fatalf("envelope changed: got %+v want %+v", got, pr)
		}
		for j := range pr.Intervals {
			w, g := pr.Intervals[j], got.Intervals[j]
			// Interval bounds are float64 on the wire: exact.
			if g.From != w.From || g.To != w.To || g.Stats != w.Stats || g.Count != w.Count {
				t.Fatalf("interval %d changed: got %+v want %+v", j, g, w)
			}
			for k := range w.Facilities {
				if g.Facilities[k].ID != w.Facilities[k].ID || !sameCosts(g.Facilities[k].Costs, w.Facilities[k].Costs) {
					t.Fatalf("interval %d facility %d changed", j, k)
				}
			}
		}
		frame2, err := EncodePeriodResult(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatal("period decode→encode is not byte-identical")
		}
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	frame := appendErrorFrame(nil, 404, "no such facility")
	payload, err := ReadFrame(bytes.NewReader(frame), MaxResponseFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 || resp.Message != "no such facility" {
		t.Fatalf("error frame decoded to %+v", resp)
	}
}

// Each frame encoder allocates exactly its frame: the length prefix is
// patched in place rather than the payload copied behind it.
func TestEncodeFrameAllocsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	res := randomResult(rng, "skyline", 4)
	pr := &PeriodResult{Query: "topk_over_period", Intervals: []Interval{
		{From: 0, To: 1, Facilities: res.Facilities}, {From: 1, To: 2, Facilities: randomResult(rng, "skyline", 3).Facilities},
	}}
	q := &Request{Kind: KindMultiSourceTopK, Edges: []int{1, 1 << 30, 3}, Ts: []float64{0.1, 0.2, 0.3}, Weights: []float64{1, 2, 3}, TimeoutMS: 1 << 40}
	for name, encode := range map[string]func(){
		"result":  func() { EncodeResult(res) },      //nolint:errcheck // allocations only
		"period":  func() { EncodePeriodResult(pr) }, //nolint:errcheck // allocations only
		"error":   func() { appendErrorFrame(nil, 503, "overloaded") },
		"request": func() { EncodeRequest(q) }, //nolint:errcheck // allocations only
	} {
		if n := testing.AllocsPerRun(100, encode); n != 1 {
			t.Errorf("encoding a %s frame allocates %.1f times, want 1", name, n)
		}
	}
}

// Oversized, truncated and corrupt frames fail cleanly instead of panicking
// or over-allocating.
func TestFrameBounds(t *testing.T) {
	q := &Request{Kind: KindSkyline, Edge: 1, T: 0.5}
	frame, err := EncodeRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame), 4); err == nil {
		t.Fatal("ReadFrame accepted a frame above max")
	}
	payload := frame[4:]
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeRequest(payload[:cut]); err == nil {
			t.Fatalf("DecodeRequest accepted a %d-byte prefix of a %d-byte frame", cut, len(payload))
		}
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 'X'
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("DecodeRequest accepted bad magic")
	}
	bad = append([]byte(nil), payload...)
	bad[4] = 99
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("DecodeRequest accepted an unknown version")
	}
	if _, err := DecodeResponse(payload); err == nil {
		t.Fatal("DecodeResponse accepted a request frame")
	}
	if _, err := DecodeRequest(append(payload, 0)); err == nil {
		t.Fatal("DecodeRequest accepted trailing bytes")
	}
}

// FuzzDecodeRequest asserts decode never panics and that anything it accepts
// re-encodes to the identical payload (a fixed point of the codec).
func FuzzDecodeRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 16; i++ {
		frame, err := EncodeRequest(randomRequest(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		q, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		frame, err := EncodeRequest(q)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", q, err)
		}
		got, err := DecodeRequest(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if got.Kind != q.Kind || got.Edge != q.Edge || got.K != q.K {
			t.Fatalf("re-encode changed the request: %+v vs %+v", got, q)
		}
	})
}

// FuzzDecodeResponse asserts response decoding never panics on arbitrary
// bytes.
func FuzzDecodeResponse(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		frame, err := EncodeResult(randomResult(rng, "skyline", 0))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add(appendErrorFrame(nil, 500, "boom")[4:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := DecodeResponse(payload)
		if err != nil {
			return
		}
		switch {
		case resp.Result != nil:
			if _, err := EncodeResult(resp.Result); err != nil {
				t.Fatalf("decoded result does not re-encode: %v", err)
			}
		case resp.Period != nil:
			if _, err := EncodePeriodResult(resp.Period); err != nil {
				t.Fatalf("decoded period result does not re-encode: %v", err)
			}
		}
	})
}
