package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mcn/internal/wire"
)

// randomRequests draws n well-formed requests for the test grid (d = 3),
// cycling through the eight kinds, zeros included: edge 0, t = 0, and now
// and then k = 0, which every path must reject alike.
func randomRequests(rng *rand.Rand, edges, n int) []*wire.Request {
	randT := func() float64 { return float64(rng.Intn(11)) / 10 }
	fs := func(n int, lo, span float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + math.Round(rng.Float64()*span*10)/10
		}
		return out
	}
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		q := &wire.Request{Kind: wire.Kinds[i%len(wire.Kinds)]}
		if rng.Intn(2) == 0 {
			q.Engine = "lsa"
		}
		if q.Scatter() {
			// Distinct edges, two or three of them.
			seen := map[int]bool{}
			for len(q.Edges) < 2+rng.Intn(2) {
				if e := rng.Intn(edges); !seen[e] {
					seen[e] = true
					q.Edges = append(q.Edges, e)
				}
			}
			if rng.Intn(2) == 0 {
				q.Ts = fs(len(q.Edges), 0, 1)
			}
			q.Cost = rng.Intn(3)
		} else if rng.Intn(5) > 0 { // else edge 0 at t = 0
			q.Edge, q.T = rng.Intn(edges), randT()
		}
		switch q.Kind {
		case wire.KindTopK, wire.KindTopKPeriod:
			q.K = rng.Intn(6)
			if rng.Intn(2) == 0 {
				q.Weights = fs(3, 0.5, 2)
			}
		case wire.KindMultiSourceTopK:
			q.K = 1 + rng.Intn(5)
			if rng.Intn(2) == 0 {
				q.Weights = fs(len(q.Edges), 0.5, 2)
			}
		case wire.KindNearest:
			q.K, q.Cost = rng.Intn(5), rng.Intn(3)
		case wire.KindWithin:
			q.Budget = fs(3, 10, 50)
		}
		if q.Period() {
			q.From = 5 + rng.Float64()*8
			q.To = q.From + 2 + rng.Float64()*8
		}
		reqs[i] = q
	}
	return reqs
}

// encoding is one way a client can put a request on the wire.
type encoding struct {
	name        string
	method      string
	contentType string
	// render gives the request target and body that carry q.
	render func(q *wire.Request) (target string, body []byte)
}

var encodings = []encoding{
	{"GET", http.MethodGet, "", func(q *wire.Request) (string, []byte) { return q.URI(), nil }},
	{"JSON", http.MethodPost, wire.ContentTypeJSON, func(q *wire.Request) (string, []byte) {
		body, err := json.Marshal(q)
		if err != nil {
			panic(err)
		}
		return "/v1/query", body
	}},
	{"MCNB", http.MethodPost, wire.ContentTypeBinary, func(q *wire.Request) (string, []byte) {
		frame, err := wire.EncodeRequest(q)
		if err != nil {
			panic(err)
		}
		return "/v1/query", frame
	}},
}

// send issues one request and returns status, headers and body.
func send(t *testing.T, base, method, target, contentType, accept string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, target, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", method, target, err)
	}
	return resp.StatusCode, resp.Header, out
}

var latencyField = regexp.MustCompile(`"latency_ms":[^,}]*`)

// zeroLatency blanks the one field of a JSON envelope that varies per run.
func zeroLatency(body []byte) string {
	return string(latencyField.ReplaceAll(body, []byte(`"latency_ms":0`)))
}

// costsEqualF32 reports whether a binary cost vector matches a JSON one after
// the codec's float32 narrowing; JSON null decodes to NaN and stands for any
// non-finite component.
func costsEqualF32(jsonCosts, binCosts []float64) bool {
	if len(jsonCosts) != len(binCosts) {
		return false
	}
	for i, jc := range jsonCosts {
		bc := binCosts[i]
		if math.IsNaN(jc) {
			if !math.IsNaN(bc) && !math.IsInf(bc, 0) {
				return false
			}
		} else if float64(float32(jc)) != bc {
			return false
		}
	}
	return true
}

func checkFacilitiesF32(t *testing.T, label string, ref, bin []wire.Facility) {
	t.Helper()
	if len(ref) != len(bin) {
		t.Fatalf("%s: %d facilities, reference has %d", label, len(bin), len(ref))
	}
	for i := range ref {
		if ref[i].ID != bin[i].ID {
			t.Fatalf("%s facility %d: id %d != reference %d", label, i, bin[i].ID, ref[i].ID)
		}
		if !costsEqualF32(ref[i].Costs, bin[i].Costs) {
			t.Fatalf("%s facility %d: costs %v != reference %v (mod float32)", label, i, bin[i].Costs, ref[i].Costs)
		}
		if float64(float32(ref[i].Score)) != bin[i].Score {
			t.Fatalf("%s facility %d: score %v != reference %v", label, i, bin[i].Score, ref[i].Score)
		}
	}
}

// checkBinaryMatchesJSON asserts a binary response is the float32 rendering
// of the JSON response to the same request: same status, and on success the
// same query, count, stats and exact interval bounds, with costs and scores
// equal after the narrowing; on failure the same message.
func checkBinaryMatchesJSON(t *testing.T, label string, status int, jsonBody []byte, binStatus int, hdr http.Header, binBody []byte) {
	t.Helper()
	if binStatus != status {
		t.Fatalf("%s: binary status %d, JSON status %d (%s)", label, binStatus, status, jsonBody)
	}
	if ct := hdr.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("%s: binary response Content-Type = %q", label, ct)
	}
	resp := decodeBinaryBody(t, binBody)
	switch {
	case status != http.StatusOK:
		var e wire.Error
		if err := json.Unmarshal(jsonBody, &e); err != nil {
			t.Fatalf("%s: JSON error body %q: %v", label, jsonBody, err)
		}
		if resp.Status != status || resp.Message != e.Error {
			t.Fatalf("%s: error frame %d %q, JSON says %d %q", label, resp.Status, resp.Message, status, e.Error)
		}
	case resp.Period != nil:
		var ref wire.PeriodResult
		if err := json.Unmarshal(jsonBody, &ref); err != nil {
			t.Fatal(err)
		}
		if resp.Period.Query != ref.Query || resp.Period.Count != ref.Count || len(resp.Period.Intervals) != len(ref.Intervals) {
			t.Fatalf("%s: binary period %s/%d, JSON %s/%d", label, resp.Period.Query, resp.Period.Count, ref.Query, ref.Count)
		}
		for i, iv := range ref.Intervals {
			biv := resp.Period.Intervals[i]
			if biv.From != iv.From || biv.To != iv.To || biv.Stats != iv.Stats || biv.Count != iv.Count {
				t.Fatalf("%s interval %d: bounds/stats %+v != JSON %+v", label, i, biv, iv)
			}
			checkFacilitiesF32(t, fmt.Sprintf("%s interval %d", label, i), iv.Facilities, biv.Facilities)
		}
	case resp.Result != nil:
		var ref wire.Result
		if err := json.Unmarshal(jsonBody, &ref); err != nil {
			t.Fatal(err)
		}
		if resp.Result.Query != ref.Query || resp.Result.Count != ref.Count || resp.Result.Stats != ref.Stats {
			t.Fatalf("%s: binary envelope %+v != JSON %+v", label, resp.Result, ref)
		}
		checkFacilitiesF32(t, label, ref.Facilities, resp.Result.Facilities)
	default:
		t.Fatalf("%s: 200 binary response carries no result: %+v", label, resp)
	}
}

func decodeBinaryBody(t *testing.T, body []byte) *wire.Response {
	t.Helper()
	payload, err := wire.ReadFrame(bytes.NewReader(body), wire.MaxResponseFrame)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	return resp
}

// payload extracts the answer-bearing fields of a JSON envelope — everything
// except latency and stats (a scattered query's stats sum its replicas') —
// as raw JSON for byte comparison.
func payload(t *testing.T, label string, body []byte) string {
	t.Helper()
	var env map[string]json.RawMessage
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", label, body, err)
	}
	return fmt.Sprintf("query=%s count=%s facilities=%s intervals=%s error=%s",
		env["query"], env["count"], env["facilities"], env["intervals"], env["error"])
}

// The headline guarantee, as one table: how a request arrives cannot change
// its answer. For seeded random requests over all eight kinds,
//
//   - the GET URL, the JSON body and the MCNB frame decode to the same
//     wire.Request;
//   - on one target — a replica, or a gateway over three replicas under
//     either routing policy, whether it proxies, scatters or range-splits —
//     the three forms' JSON responses are byte-identical apart from
//     latency_ms, and the binary response is their float32 rendering;
//   - the gateways' answers are byte-identical to the replica's.
func TestDecoderEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow; run without -short")
	}
	tg := newTestGrid(t)
	b0, b1, b2 := tg.backend(t), tg.backend(t), tg.backend(t)
	_, gwHash := newTestGateway(t, PolicyHash, b0.URL, b1.URL, b2.URL)
	_, gwLeast := newTestGateway(t, PolicyLeastInflight, b0.URL, b1.URL, b2.URL)
	targets := []struct{ name, url string }{
		{"replica", b0.URL}, {"gateway/hash", gwHash.URL}, {"gateway/least-inflight", gwLeast.URL},
	}

	for _, q := range randomRequests(rand.New(rand.NewSource(7)), tg.graph.NumEdges(), 40) {
		for _, enc := range encodings {
			target, body := enc.render(q)
			hr := httptest.NewRequest(enc.method, target, bytes.NewReader(body))
			hr.Header.Set("Content-Type", enc.contentType)
			got, _, _, err := wire.DecodeHTTP(httptest.NewRecorder(), hr)
			if err != nil || !reflect.DeepEqual(got, q) {
				t.Fatalf("%s decoder: %s decoded to %+v (err %v), want %+v", enc.name, q.URI(), got, err, q)
			}
		}

		var replica string
		for _, tgt := range targets {
			label := tgt.name + " " + q.URI()
			var refStatus int
			var ref []byte
			for _, enc := range encodings {
				target, body := enc.render(q)
				status, _, out := send(t, tgt.url, enc.method, target, enc.contentType, wire.ContentTypeJSON, body)
				if ref == nil {
					refStatus, ref = status, out
					continue
				}
				if status != refStatus || zeroLatency(out) != zeroLatency(ref) {
					t.Fatalf("%s: %s answered %d %s\nGET answered %d %s", label, enc.name, status, out, refStatus, ref)
				}
			}
			_, frame := encodings[2].render(q)
			binStatus, hdr, bin := send(t, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
			checkBinaryMatchesJSON(t, label, refStatus, ref, binStatus, hdr, bin)

			if p := fmt.Sprint(refStatus, " ", payload(t, label, ref)); replica == "" {
				replica = p
			} else if p != replica {
				t.Fatalf("%s:\ngateway: %s\nreplica: %s", label, p, replica)
			}
		}
	}
}

// One rule per parameter on every decoder: each class of malformed input is
// sent in every encoding that can carry it, to a replica and through the
// gateway, and must come back as the same status and the same message —
// in the client's codec.
func TestMalformedRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	b0, b1 := tg.backend(t), tg.backend(t)
	_, gw := newTestGateway(t, PolicyHash, b0.URL, b1.URL)
	edges := tg.graph.NumEdges()

	cases := []struct {
		name string
		get  string        // GET target, "" when the form cannot carry the class
		json string        // JSON body, likewise
		mcnb *wire.Request // request to frame, nil likewise
		want string
	}{
		{"unknown kind", "", `{"kind":"warp","edge":1}`, nil, `unknown query kind "warp"`},
		{"malformed body", "", `{not json`, nil, "decode request: invalid character 'n' looking for beginning of object key string"},
		{"unknown field", "", `{"kind":"skyline","edge":1,"stream":true}`, nil, `decode request: json: unknown field "stream"`},
		{"trailing data", "", `{"kind":"skyline","edge":1} {}`, nil, "decode request: trailing data after the request object"},
		{"missing edge", "/skyline", `{"kind":"skyline"}`, nil, "missing edge parameter"},
		{"missing edge, period", "/skyline/period?from=5&to=9", `{"kind":"skyline/period","from":5,"to":9}`, nil, "missing edge parameter"},
		{"non-numeric edge", "/skyline?edge=xyz", "", nil, `invalid edge "xyz"`},
		{"non-numeric k", "/topk?edge=1&k=zero", "", nil, `invalid k "zero"`},
		{"non-numeric multisource k", "/multisource/topk?edges=1,2&k=nope", "", nil, `invalid k "nope"`},
		{"non-numeric period k", "/topk/period?edge=17&from=5&to=9&k=nope", "", nil, `invalid k "nope"`},
		{"non-numeric edges component", "/multisource/skyline?edges=1,xyz", "", nil, `invalid edges component "xyz"`},
		{"non-numeric budget component", "/within?edge=1&budget=1,x,3", "", nil, `invalid budget component "x"`},
		{"non-numeric from", "/topk/period?edge=3&from=twelve&to=20", "", nil, `invalid from "twelve"`},
		{"non-numeric timeout", "/skyline?edge=1&timeout_ms=nope", "", nil, `invalid timeout_ms "nope"`},
		{"bad stream flag", "/skyline?stream=yes&edge=1", "", nil, `invalid stream "yes" (want a boolean)`},
		{"edge out of range", "/skyline?edge=99999999", `{"kind":"skyline","edge":99999999}`,
			&wire.Request{Kind: wire.KindSkyline, Edge: 99999999, T: 0.5},
			fmt.Sprintf("edge 99999999 out of range (network has %d edges)", edges)},
		{"negative edge", "/topk?edge=-1", `{"kind":"topk","edge":-1}`,
			&wire.Request{Kind: wire.KindTopK, Edge: -1, T: 0.5, K: 4},
			fmt.Sprintf("edge -1 out of range (network has %d edges)", edges)},
		{"multisource edge out of range", "/multisource/skyline?edges=1,99999999", `{"kind":"multisource/skyline","edges":[1,99999999]}`,
			&wire.Request{Kind: wire.KindMultiSourceSkyline, Edges: []int{1, 99999999}},
			fmt.Sprintf("edge 99999999 out of range (network has %d edges)", edges)},
		{"t out of range", "/skyline?edge=1&t=1.5", `{"kind":"skyline","edge":1,"t":1.5}`,
			&wire.Request{Kind: wire.KindSkyline, Edge: 1, T: 1.5}, "invalid t 1.5 (want a fraction in [0, 1])"},
		{"multisource t out of range", "/multisource/skyline?edges=1,2&ts=0.5,1.5", `{"kind":"multisource/skyline","edges":[1,2],"ts":[0.5,1.5]}`,
			&wire.Request{Kind: wire.KindMultiSourceSkyline, Edges: []int{1, 2}, Ts: []float64{0.5, 1.5}}, "invalid t 1.5 (want a fraction in [0, 1])"},
		{"missing edges", "/multisource/skyline", `{"kind":"multisource/skyline"}`,
			&wire.Request{Kind: wire.KindMultiSourceSkyline}, "missing edges parameter (want at least one edge id)"},
		{"ts arity", "/multisource/skyline?edges=1,2&ts=0.5", `{"kind":"multisource/skyline","edges":[1,2],"ts":[0.5]}`,
			&wire.Request{Kind: wire.KindMultiSourceSkyline, Edges: []int{1, 2}, Ts: []float64{0.5}}, "got 1 ts for 2 edges"},
		{"weights arity", "/topk?edge=1&weights=1,2", `{"kind":"topk","edge":1,"weights":[1,2]}`,
			&wire.Request{Kind: wire.KindTopK, Edge: 1, T: 0.5, K: 4, Weights: []float64{1, 2}}, "got 2 weights, want 3"},
		{"multisource weights arity", "/multisource/topk?edges=1,2&weights=1", `{"kind":"multisource/topk","edges":[1,2],"weights":[1]}`,
			&wire.Request{Kind: wire.KindMultiSourceTopK, Edges: []int{1, 2}, K: 4, Weights: []float64{1}}, "got 1 weights, want 2"},
		{"negative weight", "/topk?edge=1&weights=1,-1,1", `{"kind":"topk","edge":1,"weights":[1,-1,1]}`,
			&wire.Request{Kind: wire.KindTopK, Edge: 1, T: 0.5, K: 4, Weights: []float64{1, -1, 1}}, "invalid weight -1 (want a finite non-negative number)"},
		{"non-finite weight", "/topk/period?edge=1&from=1&to=2&weights=NaN,1,1", "",
			&wire.Request{Kind: wire.KindTopKPeriod, Edge: 1, T: 0.5, K: 4, From: 1, To: 2, Weights: []float64{math.NaN(), 1, 1}}, "invalid weight NaN (want a finite non-negative number)"},
		{"missing budget", "/within?edge=1", `{"kind":"within","edge":1}`,
			&wire.Request{Kind: wire.KindWithin, Edge: 1, T: 0.5}, "budget has 0 components, network has 3"},
		{"budget arity", "/within?edge=1&budget=1,2", `{"kind":"within","edge":1,"budget":[1,2]}`,
			&wire.Request{Kind: wire.KindWithin, Edge: 1, T: 0.5, Budget: []float64{1, 2}}, "budget has 2 components, network has 3"},
		{"unknown engine", "/nearest?edge=1&engine=bogus", `{"kind":"nearest","edge":1,"engine":"bogus"}`, nil,
			`unknown engine "bogus" (want lsa or cea)`},
		{"unknown engine, scattered", "/multisource/skyline?edges=1,2&engine=warp", `{"kind":"multisource/skyline","edges":[1,2],"engine":"warp"}`, nil,
			`unknown engine "warp" (want lsa or cea)`},
		{"negative timeout", "/skyline?edge=1&timeout_ms=-5", `{"kind":"skyline","edge":1,"timeout_ms":-5}`,
			&wire.Request{Kind: wire.KindSkyline, Edge: 1, T: 0.5, TimeoutMS: -5}, "invalid timeout_ms -5"},
		{"negative timeout, scattered", "/multisource/skyline?edges=1,2&timeout_ms=-1", `{"kind":"multisource/skyline","edges":[1,2],"timeout_ms":-1}`,
			&wire.Request{Kind: wire.KindMultiSourceSkyline, Edges: []int{1, 2}, TimeoutMS: -1}, "invalid timeout_ms -1"},
		{"missing from", "/skyline/period?edge=17&to=9", `{"kind":"skyline/period","edge":17,"to":9}`, nil, "missing from parameter"},
		{"missing to", "/skyline/period?edge=17&from=1", `{"kind":"skyline/period","edge":17,"from":1}`, nil, "missing to parameter"},
		{"empty period", "/skyline/period?edge=3&from=9&to=9", `{"kind":"skyline/period","edge":3,"from":9,"to":9}`,
			&wire.Request{Kind: wire.KindSkylinePeriod, Edge: 3, T: 0.5, From: 9, To: 9}, "invalid period [9, 9) (want finite from < to)"},
		{"reversed period", "/topk/period?edge=3&from=9&to=1", `{"kind":"topk/period","edge":3,"from":9,"to":1}`,
			&wire.Request{Kind: wire.KindTopKPeriod, Edge: 3, T: 0.5, K: 4, From: 9, To: 1}, "invalid period [9, 1) (want finite from < to)"},
		{"unbounded period", "/skyline/period?edge=3&from=-Inf&to=Inf", "",
			&wire.Request{Kind: wire.KindSkylinePeriod, Edge: 3, T: 0.5, From: math.Inf(-1), To: math.Inf(1)}, "invalid period [-Inf, +Inf) (want finite from < to)"},
		// Rejected by the query layer itself, behind the one validate step.
		{"cost out of range", "/nearest?edge=1&cost=9", `{"kind":"nearest","edge":1,"cost":9}`,
			&wire.Request{Kind: wire.KindNearest, Edge: 1, T: 0.5, K: 1, Cost: 9}, "core: cost index 9 out of range (d=3)"},
		{"multisource cost out of range", "/multisource/skyline?cost=9&edges=1,2", `{"kind":"multisource/skyline","edges":[1,2],"cost":9}`,
			&wire.Request{Kind: wire.KindMultiSourceSkyline, Edges: []int{1, 2}, Cost: 9}, "core: cost index 9 out of range (d=3)"},
		{"k = 0", "/topk?edge=1&k=0", `{"kind":"topk","edge":1,"k":0}`,
			&wire.Request{Kind: wire.KindTopK, Edge: 1, T: 0.5}, "core: top-k requires k >= 1, got 0"},
	}
	for _, tc := range cases {
		for _, tgt := range []struct{ name, url string }{{"replica", b0.URL}, {"gateway", gw.URL}} {
			label := tc.name + " via " + tgt.name
			check := func(form string, status int, msg string) {
				t.Helper()
				if status != http.StatusBadRequest || msg != tc.want {
					t.Errorf("%s, %s: %d %q, want 400 %q", label, form, status, msg, tc.want)
				}
			}
			jsonMsg := func(body []byte) string {
				var e wire.Error
				if err := json.Unmarshal(body, &e); err != nil {
					t.Errorf("%s: error body %q: %v", label, body, err)
				}
				return e.Error
			}
			if tc.get != "" {
				status, _, body := send(t, tgt.url, http.MethodGet, tc.get, "", "", nil)
				check("GET", status, jsonMsg(body))
			}
			if tc.json != "" {
				status, _, body := send(t, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeJSON, "", []byte(tc.json))
				check("JSON", status, jsonMsg(body))
				// The same body answered in the other codec: an error frame
				// carrying the status in-band too.
				status, _, body = send(t, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeJSON, wire.ContentTypeBinary, []byte(tc.json))
				resp := decodeBinaryBody(t, body)
				check("JSON→MCNB", status, resp.Message)
				if resp.Status != status {
					t.Errorf("%s: error frame says %d under HTTP %d", label, resp.Status, status)
				}
			}
			if tc.mcnb != nil {
				frame, err := wire.EncodeRequest(tc.mcnb)
				if err != nil {
					t.Fatal(err)
				}
				status, _, body := send(t, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
				check("MCNB", status, decodeBinaryBody(t, body).Message)
				status, _, body = send(t, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeBinary, wire.ContentTypeJSON, frame)
				check("MCNB→JSON", status, jsonMsg(body))
			}
		}
	}

	// Damaged frames are the MCNB decoder's own class; both tiers refuse them
	// alike, in the request's codec.
	good, err := wire.EncodeRequest(&wire.Request{Kind: wire.KindSkyline, Edge: 1, T: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"bad magic":       append([]byte{9, 0, 0, 0}, "not-magic"...),
		"truncated":       good[:len(good)-3],
		"oversize prefix": {0xff, 0xff, 0xff, 0x7f, 'M', 'C', 'N', 'B'},
		"trailing bytes":  append(append([]byte{good[0] + 1}, good[1:]...), 0),
		"empty body":      nil,
	} {
		rs, _, rb := send(t, b0.URL, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
		gs, _, gb := send(t, gw.URL, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
		if rs != http.StatusBadRequest || gs != rs || !bytes.Equal(rb, gb) {
			t.Errorf("%s frame: replica %d, gateway %d (bodies equal: %v), want both 400 and identical", name, rs, gs, bytes.Equal(rb, gb))
		} else if resp := decodeBinaryBody(t, rb); resp.Status != http.StatusBadRequest || resp.Message == "" {
			t.Errorf("%s frame: error frame %+v", name, resp)
		}
	}
}

// The unifications this table pins are behaviour changes against the
// two-path code, each of which answered differently there: timeout_ms=0 is
// the server default on every decoder (GET used to refuse it), and it, like
// an equivalent float spelling, does not change the routing key.
func TestTimeoutZeroAndRoutingKey(t *testing.T) {
	tg := newTestGrid(t)
	b0 := tg.backend(t)
	_, gw := newTestGateway(t, PolicyHash, b0.URL)
	for _, base := range []string{b0.URL, gw.URL} {
		for _, target := range []string{"/skyline?edge=1&timeout_ms=0", "/multisource/skyline?edges=1,2&timeout_ms=0"} {
			if status, _, body := send(t, base, http.MethodGet, target, "", "", nil); status != http.StatusOK {
				t.Errorf("GET %s = %d (%s), want 200: timeout_ms=0 means the server default", target, status, body)
			}
		}
		body := []byte(`{"kind":"skyline","edge":1,"timeout_ms":0}`)
		if status, _, out := send(t, base, http.MethodPost, "/v1/query", wire.ContentTypeJSON, "", body); status != http.StatusOK {
			t.Errorf("POST %s = %d (%s), want 200", body, status, out)
		}
	}

	key := func(method, target, contentType string, body []byte) string {
		t.Helper()
		hr := httptest.NewRequest(method, target, bytes.NewReader(body))
		hr.Header.Set("Content-Type", contentType)
		q, _, _, err := wire.DecodeHTTP(httptest.NewRecorder(), hr)
		if err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
		return CanonicalKey(q)
	}
	want := "/skyline?edge=3&t=0.5"
	frame, err := wire.EncodeRequest(&wire.Request{Kind: wire.KindSkyline, Edge: 3, T: 0.5, TimeoutMS: 250})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{
		"GET, sorted and delivery params stripped": key(http.MethodGet, "/skyline?t=0.5&timeout_ms=250&edge=3&stream=1", "", nil),
		"GET, t=0.50 and engine=cea":               key(http.MethodGet, "/skyline?edge=3&t=0.50&engine=cea", "", nil),
		"GET, default t":                           key(http.MethodGet, "/skyline?edge=3", "", nil),
		"JSON":                                     key(http.MethodPost, "/v1/query", wire.ContentTypeJSON, []byte(`{"kind":"skyline","edge":3,"timeout_ms":9}`)),
		"MCNB":                                     key(http.MethodPost, "/v1/query", wire.ContentTypeBinary, frame),
	} {
		if got != want {
			t.Errorf("CanonicalKey(%s) = %q, want %q", name, got, want)
		}
	}
}

// fuzzCase is one entry of internal/serve's FuzzV1Query seed corpus.
type fuzzCase struct {
	name                string
	body                []byte
	contentType, accept string
	kind                int
	query               string
}

// readFuzzCorpus parses the corpus files ("go test fuzz v1", then one Go
// literal per argument: []byte, string, string, int, string).
func readFuzzCorpus(t *testing.T, dir string) []fuzzCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus under %s (err %v)", dir, err)
	}
	var out []fuzzCase
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 6 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a 5-argument v1 corpus file", file)
		}
		arg := make([]string, 5)
		for i, line := range lines[1:] {
			lit := line[strings.IndexByte(line, '(')+1 : len(line)-1]
			if arg[i] = lit; i != 3 {
				if arg[i], err = strconv.Unquote(lit); err != nil {
					t.Fatalf("%s: argument %d %s: %v", file, i, line, err)
				}
			}
		}
		kind, err := strconv.Atoi(arg[3])
		if err != nil {
			t.Fatalf("%s: kind %q: %v", file, arg[3], err)
		}
		out = append(out, fuzzCase{filepath.Base(file), []byte(arg[0]), arg[1], arg[2], kind, arg[4]})
	}
	return out
}

// The hostile-input corpus of internal/serve's FuzzV1Query, replayed once
// through a gateway over two replicas: whatever the gateway does with a
// request — reject, proxy, scatter, split — it must answer what a replica
// answers: the same status, within 200/400/503, and the same error.
func TestFuzzCorpusThroughGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	b0, b1 := tg.backend(t), tg.backend(t)
	g, gw := newTestGateway(t, PolicyHash, b0.URL, b1.URL)
	for _, fc := range readFuzzCorpus(t, filepath.Join("..", "serve", "testdata", "fuzz", "FuzzV1Query")) {
		kind := fc.kind
		if kind < 0 {
			kind = -(kind + 1)
		}
		for _, req := range []struct {
			method, target string
			body           []byte
		}{
			{http.MethodPost, "/v1/query", fc.body},
			{http.MethodGet, "/" + wire.Kinds[kind%len(wire.Kinds)] + "?" + fc.query, nil},
		} {
			label := fc.name + " " + req.method + " " + req.target
			rs, rh, rb := send(t, b0.URL, req.method, req.target, fc.contentType, fc.accept, req.body)
			gs, gh, gb := send(t, gw.URL, req.method, req.target, fc.contentType, fc.accept, req.body)
			if rs != http.StatusOK && rs != http.StatusBadRequest && rs != http.StatusServiceUnavailable {
				t.Errorf("%s: replica status %d", label, rs)
			}
			if gs != rs || gh.Get("Content-Type") != rh.Get("Content-Type") {
				t.Errorf("%s: gateway %d %s (%s), replica %d %s (%s)",
					label, gs, gh.Get("Content-Type"), gb, rs, rh.Get("Content-Type"), rb)
			} else if rs == http.StatusBadRequest && !bytes.Equal(gb, rb) {
				t.Errorf("%s: gateway error %q, replica error %q", label, gb, rb)
			}
			if rs == http.StatusServiceUnavailable {
				// A 503 (here: a 1 ms deadline) cools the replica that gave it;
				// re-admit it so the next case sees the whole cluster again.
				g.m.ProbeAll(ctx)
			}
		}
	}
}
