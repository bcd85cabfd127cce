package wire

// The HTTP front ends of the one request model. A query reaches either tier
// as a GET URL, a JSON body or an MCNB frame; DecodeHTTP turns each into the
// same normalised Request plus the Mode the response is rendered in, and
// Write renders every response — result, period result, error — in that
// mode. Both the replica (internal/serve) and the gateway (internal/cluster)
// call exactly these, so a parameter means the same thing on every path.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// Mode is the codec a response is rendered in.
type Mode int

const (
	// ModeJSON is the JSON envelope: every GET without stream=1, and POST
	// /v1/query negotiated to application/json.
	ModeJSON Mode = iota
	// ModeBinary is one MCNB response frame (POST /v1/query only).
	ModeBinary
	// ModeNDJSON streams one facility per line: GET /skyline and /topk with
	// stream=1. Responses written before the stream starts are JSON.
	ModeNDJSON
)

// mediaType strips any parameters (charset, boundary) off a Content-Type.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// DecodeHTTP decodes one query request. A GET is decoded from its URL; any
// other method carries the request as its body — an MCNB frame when
// Content-Type is ContentTypeBinary, a JSON object otherwise — and the
// response mode follows an explicit Accept for either media type, defaulting
// to the body's own codec. body is the raw request body (nil for GET), which
// the gateway forwards verbatim. The mode is valid even when err is not, so
// the caller can render the 400 in it.
func DecodeHTTP(w http.ResponseWriter, r *http.Request) (q *Request, mode Mode, body []byte, err error) {
	if r.Method == http.MethodGet {
		q, mode, err = decodeURL(r.URL)
		return q, mode, nil, err
	}
	binaryIn := mediaType(r.Header.Get("Content-Type")) == ContentTypeBinary
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, ContentTypeBinary) ||
		binaryIn && !strings.Contains(accept, ContentTypeJSON) {
		mode = ModeBinary
	}
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestFrame+16))
	if err != nil {
		return nil, mode, nil, errors.New("unreadable or oversized request body")
	}
	q, err = DecodeRequestBody(body, binaryIn)
	return q, mode, body, err
}

// DecodeRequestBody parses a /v1/query request body: one length-prefixed
// MCNB frame when binary is set, a JSON object otherwise. A JSON body may
// name only the fields of Request; an unknown field or trailing data is an
// error, and absent fields follow the GET rules (fields.request).
func DecodeRequestBody(body []byte, binary bool) (*Request, error) {
	if binary {
		payload, err := ReadFrame(bytes.NewReader(body), MaxRequestFrame)
		if err != nil {
			return nil, fmt.Errorf("read frame: %w", err)
		}
		return DecodeRequest(payload)
	}
	var f fields
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("decode request: trailing data after the request object")
	}
	return f.request()
}

// fields is what the two textual decoders collect before the per-parameter
// rules are applied: the JSON body unmarshals straight into it and the GET
// decoder fills it from the query string. Pointers mark the parameters whose
// absence differs from zero.
type fields struct {
	Kind      string    `json:"kind"`
	Edge      *int      `json:"edge"`
	T         *float64  `json:"t"`
	K         *int      `json:"k"`
	Cost      int       `json:"cost"`
	Weights   []float64 `json:"weights"`
	Budget    []float64 `json:"budget"`
	Edges     []int     `json:"edges"`
	Ts        []float64 `json:"ts"`
	Engine    string    `json:"engine"`
	From      *float64  `json:"from"`
	To        *float64  `json:"to"`
	TimeoutMS int       `json:"timeout_ms"`
}

// request applies the one rule per parameter that the GET and JSON decoders
// share and builds the normalised Request: only the fields the kind uses are
// copied, edge and from/to are required where the kind uses them, t defaults
// to 0.5 and k to the kind's default, engine is lower-cased with "cea"
// folded into "". Rules that an MCNB frame can break too (ranges, arities,
// an empty edges or budget list, a negative timeout) are the server's
// validate step, not this one.
func (f *fields) request() (*Request, error) {
	if _, ok := kindBytes[f.Kind]; !ok {
		return nil, fmt.Errorf("unknown query kind %q", f.Kind)
	}
	q := &Request{Kind: f.Kind, TimeoutMS: f.TimeoutMS}
	switch eng := strings.ToLower(f.Engine); eng {
	case "", "cea":
	case "lsa":
		q.Engine = eng
	default:
		return nil, fmt.Errorf("unknown engine %q (want lsa or cea)", f.Engine)
	}
	if q.Scatter() {
		q.Edges, q.Ts, q.Cost = list(f.Edges), list(f.Ts), f.Cost
	} else {
		if f.Edge == nil {
			return nil, errors.New("missing edge parameter")
		}
		q.Edge, q.T = *f.Edge, 0.5
		if f.T != nil {
			q.T = *f.T
		}
	}
	switch {
	case q.ranked():
		q.K, q.Weights = 4, list(f.Weights)
	case q.Kind == KindNearest:
		q.K, q.Cost = 1, f.Cost
	case q.Kind == KindWithin:
		q.Budget = list(f.Budget)
	}
	if f.K != nil && (q.ranked() || q.Kind == KindNearest) {
		q.K = *f.K
	}
	if q.Period() {
		if f.From == nil {
			return nil, errors.New("missing from parameter")
		}
		if f.To == nil {
			return nil, errors.New("missing to parameter")
		}
		q.From, q.To = *f.From, *f.To
	}
	return q, nil
}

// list folds an empty list into nil: it and an absent one are the same
// request.
func list[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// params reads typed GET parameters out of a parsed query string, latching
// the first malformed one so call sites read straight-line.
type params struct {
	v   url.Values
	err error
}

func (p *params) fail(key, raw string) {
	if p.err == nil {
		p.err = fmt.Errorf("invalid %s %q", key, raw)
	}
}

// int returns the parameter, or nil when it is absent.
func (p *params) int(key string) *int {
	raw := p.v.Get(key)
	if raw == "" {
		return nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		p.fail(key, raw)
	}
	return &n
}

// intOr0 returns the parameter, or 0 when it is absent.
func (p *params) intOr0(key string) int {
	if n := p.int(key); n != nil {
		return *n
	}
	return 0
}

func (p *params) float(key string) *float64 {
	raw := p.v.Get(key)
	if raw == "" {
		return nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		p.fail(key, raw)
	}
	return &f
}

// split cuts a comma-separated parameter, nil when it is absent.
func (p *params) split(key string) []string {
	raw := p.v.Get(key)
	if raw == "" {
		return nil
	}
	return strings.Split(raw, ",")
}

func (p *params) floats(key string) []float64 {
	parts := p.split(key)
	out := make([]float64, len(parts))
	for i, part := range parts {
		var err error
		if out[i], err = strconv.ParseFloat(strings.TrimSpace(part), 64); err != nil {
			p.fail(key+" component", part)
		}
	}
	return out
}

func (p *params) ints(key string) []int {
	parts := p.split(key)
	out := make([]int, len(parts))
	for i, part := range parts {
		var err error
		if out[i], err = strconv.Atoi(strings.TrimSpace(part)); err != nil {
			p.fail(key+" component", part)
		}
	}
	return out
}

// decodeURL decodes a GET request URL: the path names the kind, the query
// string — parsed once — its parameters. stream=1 on /skyline and /topk
// selects NDJSON; it is a delivery switch of the GET form only and is not
// part of the Request. Unknown parameters are ignored.
func decodeURL(u *url.URL) (*Request, Mode, error) {
	p := params{v: u.Query()}
	f := fields{
		Kind:      strings.TrimPrefix(u.Path, "/"),
		Edge:      p.int("edge"),
		T:         p.float("t"),
		K:         p.int("k"),
		Cost:      p.intOr0("cost"),
		Weights:   p.floats("weights"),
		Budget:    p.floats("budget"),
		Edges:     p.ints("edges"),
		Ts:        p.floats("ts"),
		Engine:    p.v.Get("engine"),
		From:      p.float("from"),
		To:        p.float("to"),
		TimeoutMS: p.intOr0("timeout_ms"),
	}
	mode := ModeJSON
	if raw := p.v.Get("stream"); raw != "" && (f.Kind == KindSkyline || f.Kind == KindTopK) {
		stream, err := strconv.ParseBool(raw)
		if err != nil && p.err == nil {
			p.err = fmt.Errorf("invalid stream %q (want a boolean)", raw)
		}
		if stream {
			mode = ModeNDJSON
		}
	}
	if p.err != nil {
		return nil, mode, p.err
	}
	q, err := f.request()
	return q, mode, err
}

// Write writes v — a *Result, a *PeriodResult or an Error — as the complete
// response in mode. It is the one response writer of both tiers; only
// ModeBinary differs from JSON (an NDJSON request that fails before its
// stream starts is answered in JSON). The body is rendered before the status
// goes out: a value it cannot encode is a 500 "internal encoding failure".
func Write(w http.ResponseWriter, mode Mode, status int, v any) {
	buf := bufs.Get().(*[]byte)
	b, err := appendResponse((*buf)[:0], mode, status, v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = appendResponse((*buf)[:0], mode, status, Error{Error: "internal encoding failure"})
	}
	w.Header().Set("Content-Type", contentTypes[mode])
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
	// A buffer grown past 64 KiB is left to the collector, not pinned.
	if cap(b) <= 64<<10 {
		*buf = b
		bufs.Put(buf)
	}
}

// WriteJSON writes v as the complete JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) { Write(w, ModeJSON, status, v) }

var (
	contentTypes = [...]string{ModeJSON: ContentTypeJSON, ModeBinary: ContentTypeBinary, ModeNDJSON: ContentTypeJSON}
	bufs         = sync.Pool{New: func() any { return new([]byte) }}
)

// appendResponse renders v in mode: a query envelope by the append encoders,
// anything else (an Error, the introspection maps) by encoding/json.
func appendResponse(dst []byte, mode Mode, status int, v any) ([]byte, error) {
	if mode == ModeBinary {
		switch v := v.(type) {
		case *Result:
			return appendResultFrame(dst, v)
		case *PeriodResult:
			return appendPeriodFrame(dst, v)
		case Error:
			return appendErrorFrame(dst, status, v.Error), nil
		}
		return dst, fmt.Errorf("wire: no frame for %T", v)
	}
	var err error
	switch v := v.(type) {
	case *Result:
		dst, err = AppendResult(dst, v)
	case *PeriodResult:
		dst, err = AppendPeriodResult(dst, v)
	default:
		var out []byte
		out, err = json.Marshal(v)
		dst = append(dst, out...)
	}
	return append(dst, '\n'), err
}

// WriteShed writes v as a 503 carrying the Retry-After hint of every shed —
// a replica's admission rejection, a gateway with no replica left, an unready
// /readyz — so clients and gateways need only one retry discipline.
func WriteShed(w http.ResponseWriter, mode Mode, v any) {
	w.Header().Set("Retry-After", "1")
	Write(w, mode, http.StatusServiceUnavailable, v)
}
