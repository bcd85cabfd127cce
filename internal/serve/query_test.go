package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcn"
	"mcn/internal/wire"
)

// postQuery sends one /v1/query request with the given body and headers and
// returns the raw response.
func postQuery(t *testing.T, ts *testServer, body []byte, contentType, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", accept)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// decodeBinaryResponse unwraps a binary response body into its envelope.
func decodeBinaryResponse(t *testing.T, raw []byte) *wire.Response {
	t.Helper()
	payload, err := wire.ReadFrame(bytes.NewReader(raw), wire.MaxResponseFrame)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	return resp
}

// Content negotiation: the response codec follows Accept when present and
// mirrors the request codec when absent. (The answers in each codec, mirrored
// and negotiated, are held to the oracle by the lattice's served rows.)
func TestV1QueryNegotiation(t *testing.T) {
	h := timeServer(t, time.Minute)
	ts := newTestServer(t, h)

	q := &wire.Request{Kind: wire.KindSkyline, Edge: 17, T: 0.25}
	frame, err := wire.EncodeRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, contentType, accept, wantCT string
		body                              []byte
	}{
		{"binary mirrors binary", wire.ContentTypeBinary, "", wire.ContentTypeBinary, frame},
		{"json mirrors json", wire.ContentTypeJSON, "", wire.ContentTypeJSON, jsonBody},
		{"binary in, json out", wire.ContentTypeBinary, wire.ContentTypeJSON, wire.ContentTypeJSON, frame},
		{"json in, binary out", wire.ContentTypeJSON, wire.ContentTypeBinary, wire.ContentTypeBinary, jsonBody},
		{"charset parameter ignored", wire.ContentTypeJSON + "; charset=utf-8", "", wire.ContentTypeJSON, jsonBody},
		{"wildcard accept mirrors", wire.ContentTypeBinary, "*/*", wire.ContentTypeBinary, frame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postQuery(t, ts, tc.body, tc.contentType, tc.accept)
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != tc.wantCT {
				t.Fatalf("status %d, content type %q, want 200 %q: %s", resp.StatusCode, ct, tc.wantCT, raw)
			}
		})
	}
}

// Period kinds without a time-dependent network are a 400 on /v1/query (the
// route is always mounted) and a 404 on GET (the period routes exist only
// with one attached). The malformed-input classes shared with the gateway
// are pinned, per decoder, by internal/cluster's TestMalformedRequests.
func TestV1QueryPeriodWithoutTimeNetwork(t *testing.T) {
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 300, Facilities: 40, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain := newTestServer(t, New(mcn.FromGraph(g), Config{Workers: 1, Timeout: 0}).Handler())
	frame, err := wire.EncodeRequest(&wire.Request{Kind: wire.KindSkylinePeriod, Edge: 1, T: 0.5, From: 5, To: 9})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postQuery(t, plain, frame, wire.ContentTypeBinary, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("period without tnet: status %d, want 400", resp.StatusCode)
	}
	if got := decodeBinaryResponse(t, raw); got.Status != http.StatusBadRequest || got.Message == "" {
		t.Fatalf("period without tnet: error frame %+v", got)
	}
	if got := plain.status(t, "/skyline/period?edge=1&from=5&to=9"); got != http.StatusNotFound {
		t.Errorf("GET period route without a TimeNetwork: status %d, want 404", got)
	}
}

// FuzzV1Query throws hostile input at the whole handler, not just the codec:
// an arbitrary body under an arbitrary Content-Type and Accept against POST
// /v1/query, and an arbitrary query string against one of the GET routes.
// Whatever arrives, the server must not panic, must answer 200, 400, 503 or
// 504 — never a 500, a fault of its own making — and must answer in the
// codec it announces: a frame whose in-band status matches, or a JSON
// envelope with a message.
//
// The seed corpus (testdata/fuzz/FuzzV1Query, one file per case) is the
// malformed-input classes of internal/cluster's TestMalformedRequests plus a
// well-formed request per kind and codec; that package replays the same
// corpus through a gateway (TestFuzzCorpusThroughGateway).
func FuzzV1Query(f *testing.F) {
	// A short server timeout: a hostile request may ask for unbounded work
	// (k in the millions, a period of centuries), and what bounds it is the
	// deadline — a 504, which is within the contract.
	h := timeServer(f, 100*time.Millisecond)
	f.Fuzz(func(t *testing.T, body []byte, contentType, accept string, kind int, query string) {
		post := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		post.Header.Set("Content-Type", contentType)
		post.Header.Set("Accept", accept)
		checkAnswer(t, h, post)

		if kind < 0 {
			kind = -(kind + 1)
		}
		get := httptest.NewRequest(http.MethodGet, "/"+wire.Kinds[kind%len(wire.Kinds)], nil)
		get.URL.RawQuery = query
		checkAnswer(t, h, get)
	})
}

// checkAnswer serves r and asserts the response invariants of FuzzV1Query.
func checkAnswer(t *testing.T, h http.Handler, r *http.Request) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	status, raw := rec.Code, rec.Body.Bytes()
	label := r.Method + " " + r.URL.RequestURI()
	switch status {
	case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
	default:
		t.Fatalf("%s: status %d (%s), want 200, 400, 503 or 504", label, status, raw)
	}
	switch ct := rec.Header().Get("Content-Type"); ct {
	case wire.ContentTypeBinary:
		if strings.Contains(r.Header.Get("Accept"), wire.ContentTypeJSON) && !strings.Contains(r.Header.Get("Accept"), wire.ContentTypeBinary) {
			t.Fatalf("%s: binary response to Accept %q", label, r.Header.Get("Accept"))
		}
		resp := decodeBinaryResponse(t, raw)
		if ok := resp.Result != nil || resp.Period != nil; ok != (status == http.StatusOK) ||
			!ok && (resp.Status != status || resp.Message == "") {
			t.Fatalf("%s: status %d with frame %+v", label, status, resp)
		}
	case wire.ContentTypeJSON:
		if strings.Contains(r.Header.Get("Accept"), wire.ContentTypeBinary) {
			t.Fatalf("%s: JSON response to Accept %q", label, r.Header.Get("Accept"))
		}
		var env struct {
			Query string `json:"query"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: status %d with undecodable JSON %q: %v", label, status, raw, err)
		}
		if (status == http.StatusOK) != (env.Query != "") || (status == http.StatusOK) == (env.Error != "") {
			t.Fatalf("%s: status %d with envelope %s", label, status, raw)
		}
	case "application/x-ndjson":
		// A stream that started: 200, one JSON object per line, the last one
		// the done-line or an in-band error.
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		for _, line := range lines {
			if !json.Valid(line) {
				t.Fatalf("%s: bad NDJSON line %q", label, line)
			}
		}
		var last struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || status != http.StatusOK || !last.Done && last.Error == "" {
			t.Fatalf("%s: status %d, stream ends with %q", label, status, lines[len(lines)-1])
		}
	default:
		t.Fatalf("%s: response Content-Type %q", label, ct)
	}
}

// timeServer builds a serve handler with the period endpoints enabled over a
// synthetic time-dependent network, with the given server-side query
// timeout.
func timeServer(t testing.TB, timeout time.Duration) http.Handler {
	t.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 600, Facilities: 100, D: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tnet := mcn.TimeDependent(g)
	// Dense profiles, so that period queries answer with several intervals.
	if err := mcn.AttachSyntheticProfiles(tnet, 600, 11); err != nil {
		t.Fatal(err)
	}
	return New(mcn.FromGraph(g), Config{Workers: 4, Timeout: timeout, TimeNet: tnet}).Handler()
}
