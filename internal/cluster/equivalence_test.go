package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcn/internal/wire"
)

// send issues one request through c and returns status, headers and body.
func send(t *testing.T, c *http.Client, base, method, target, contentType, accept string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", accept)
	resp, err := c.Do(req)
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

// decodeBinaryBody reads an MCNB response body: an error frame of the
// malformed-input table, or a negotiated answer.
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

// One rule per parameter on every decoder: each class of malformed input is
// sent in every encoding that can carry it, to a replica and through the
// gateway, and must come back as the same status and the same message —
// in the client's codec.
func TestMalformedRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	n := newNet(t)
	c := n.Client()
	b0, b1 := tg.backend(n), tg.backend(n)
	_, gw := serveTestGateway(t, n, b0, b1)
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
		{"unknown engine, multisource", "/multisource/skyline?edges=1,2&engine=warp", `{"kind":"multisource/skyline","edges":[1,2],"engine":"warp"}`, nil,
			`unknown engine "warp" (want lsa or cea)`},
		{"negative timeout", "/skyline?edge=1&timeout_ms=-5", `{"kind":"skyline","edge":1,"timeout_ms":-5}`,
			&wire.Request{Kind: wire.KindSkyline, Edge: 1, T: 0.5, TimeoutMS: -5}, "invalid timeout_ms -5"},
		{"negative timeout, multisource", "/multisource/skyline?edges=1,2&timeout_ms=-1", `{"kind":"multisource/skyline","edges":[1,2],"timeout_ms":-1}`,
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
		for _, tgt := range []struct{ name, url string }{{"replica", b0}, {"gateway", gw}} {
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
				status, _, body := send(t, c, tgt.url, http.MethodGet, tc.get, "", "", nil)
				check("GET", status, jsonMsg(body))
			}
			if tc.json != "" {
				status, _, body := send(t, c, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeJSON, "", []byte(tc.json))
				check("JSON", status, jsonMsg(body))
				// The same body answered in the other codec: an error frame
				// carrying the status in-band too.
				status, _, body = send(t, c, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeJSON, wire.ContentTypeBinary, []byte(tc.json))
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
				status, _, body := send(t, c, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
				check("MCNB", status, decodeBinaryBody(t, body).Message)
				status, _, body = send(t, c, tgt.url, http.MethodPost, "/v1/query", wire.ContentTypeBinary, wire.ContentTypeJSON, frame)
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
		rs, _, rb := send(t, c, b0, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
		gs, _, gb := send(t, c, gw, http.MethodPost, "/v1/query", wire.ContentTypeBinary, "", frame)
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
	n := newNet(t)
	c := n.Client()
	b0 := tg.backend(n)
	_, gw := serveTestGateway(t, n, b0)
	for _, base := range []string{b0, gw} {
		for _, target := range []string{"/skyline?edge=1&timeout_ms=0", "/multisource/skyline?edges=1,2&timeout_ms=0"} {
			if status, _, body := send(t, c, base, http.MethodGet, target, "", "", nil); status != http.StatusOK {
				t.Errorf("GET %s = %d (%s), want 200: timeout_ms=0 means the server default", target, status, body)
			}
		}
		body := []byte(`{"kind":"skyline","edge":1,"timeout_ms":0}`)
		if status, _, out := send(t, c, base, http.MethodPost, "/v1/query", wire.ContentTypeJSON, "", body); status != http.StatusOK {
			t.Errorf("POST %s = %d (%s), want 200", body, status, out)
		}
	}

	want := "/skyline?edge=3&t=0.5"
	frame, err := wire.EncodeRequest(&wire.Request{Kind: wire.KindSkyline, Edge: 3, T: 0.5, TimeoutMS: 250})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{
		"GET, sorted and delivery params stripped": routingKey(t, http.MethodGet, "/skyline?t=0.5&timeout_ms=250&edge=3&stream=1", "", nil),
		"GET, t=0.50 and engine=cea":               routingKey(t, http.MethodGet, "/skyline?edge=3&t=0.50&engine=cea", "", nil),
		"GET, default t":                           routingKey(t, http.MethodGet, "/skyline?edge=3", "", nil),
		"JSON":                                     routingKey(t, http.MethodPost, "/v1/query", wire.ContentTypeJSON, []byte(`{"kind":"skyline","edge":3,"timeout_ms":9}`)),
		"MCNB":                                     routingKey(t, http.MethodPost, "/v1/query", wire.ContentTypeBinary, frame),
	} {
		if got != want {
			t.Errorf("CanonicalKey(%s) = %q, want %q", name, got, want)
		}
	}
}

// routingKey is the CanonicalKey the gateway routes a request on.
func routingKey(t *testing.T, method, target, contentType string, body []byte) string {
	t.Helper()
	hr := httptest.NewRequest(method, target, bytes.NewReader(body))
	hr.Header.Set("Content-Type", contentType)
	q, _, _, err := wire.DecodeHTTP(httptest.NewRecorder(), hr)
	if err != nil {
		t.Fatalf("%s %s: %v", method, target, err)
	}
	return CanonicalKey(q)
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
// through a gateway over two replicas: whether the gateway rejects a request
// or proxies it, it must answer what a replica answers: the same status,
// within 200/400/503, and the same error. Where a positive timeout_ms lets
// the deadline decide between an answer and a 503, which side meets it is
// timing, so either side may give either.
func TestFuzzCorpusThroughGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("uses full serve replicas; run without -short")
	}
	tg := newTestGrid(t)
	n := newNet(t)
	c := n.Client()
	b0, b1 := tg.backend(n), tg.backend(n)
	g, gw := serveTestGateway(t, n, b0, b1)
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
			rs, rh, rb := send(t, c, b0, req.method, req.target, fc.contentType, fc.accept, req.body)
			gs, gh, gb := send(t, c, gw, req.method, req.target, fc.contentType, fc.accept, req.body)
			if rs != http.StatusOK && rs != http.StatusBadRequest && rs != http.StatusServiceUnavailable {
				t.Errorf("%s: replica status %d", label, rs)
			}
			if rs == http.StatusServiceUnavailable || gs == http.StatusServiceUnavailable {
				// A 503 (here: a 1 ms deadline) cools the replica that gave it;
				// re-admit it so the next case sees the whole cluster again.
				g.m.ProbeAll(ctx)
			}
			hr := httptest.NewRequest(req.method, req.target, bytes.NewReader(req.body))
			hr.Header.Set("Content-Type", fc.contentType)
			q, _, _, err := wire.DecodeHTTP(httptest.NewRecorder(), hr)
			timed := func(s int) bool { return s == http.StatusOK || s == http.StatusServiceUnavailable }
			if err == nil && q.TimeoutMS > 0 && timed(rs) && timed(gs) {
				continue // the deadline decided; nothing to compare
			}
			if gs != rs || gh.Get("Content-Type") != rh.Get("Content-Type") {
				t.Errorf("%s: gateway %d %s (%s), replica %d %s (%s)",
					label, gs, gh.Get("Content-Type"), gb, rs, rh.Get("Content-Type"), rb)
			} else if rs == http.StatusBadRequest && !bytes.Equal(gb, rb) {
				t.Errorf("%s: gateway error %q, replica error %q", label, gb, rb)
			}
		}
	}
}
