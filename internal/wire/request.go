package wire

import (
	"math"
	"net/url"
	"strconv"
	"strings"
)

// Query kinds a Request can carry — the path of the equivalent GET endpoint.
// One set of names serves three jobs: the JSON request form ("kind" field),
// the binary header's kind byte (see binary.go), and the GET route each tier
// mounts.
const (
	KindSkyline            = "skyline"
	KindTopK               = "topk"
	KindNearest            = "nearest"
	KindWithin             = "within"
	KindMultiSourceSkyline = "multisource/skyline"
	KindMultiSourceTopK    = "multisource/topk"
	KindSkylinePeriod      = "skyline/period"
	KindTopKPeriod         = "topk/period"
)

// Kinds lists the eight query kinds in frame-kind-byte order; both tiers
// mount one GET route per entry.
var Kinds = []string{
	KindSkyline, KindTopK, KindNearest, KindWithin,
	KindMultiSourceSkyline, KindMultiSourceTopK, KindSkylinePeriod, KindTopKPeriod,
}

// Request is the one internal form of a query request. The GET URL, the JSON
// body and the MCNB frame are three decoders into it (decode.go, binary.go),
// and all three produce the same normalised value for the same query: fields
// the kind does not use stay zero, Engine is "" (CEA) or "lsa", and empty
// lists are nil.
//
// Request floats (T, Ts, Weights, Budget, From, To) stay float64 on every
// codec — unlike response cost vectors, which the binary codec narrows to
// float32 — so every codec runs the exact same query and period sub-range
// boundaries survive gateway splitting bit-for-bit.
//
// The JSON encoding always carries edge, t, k, from and to, so that
// json.Marshal followed by the JSON decoder is the identity even where those
// are zero; the decoder tells an absent field (GET default, or a 400 where
// the kind requires it) from an explicit zero.
type Request struct {
	Kind string `json:"kind"`
	// Edge/T locate single-location queries (all kinds except multisource/*).
	Edge int     `json:"edge"`
	T    float64 `json:"t"`
	// K is the result bound of topk, nearest, multisource/topk, topk/period.
	K int `json:"k"`
	// Cost is the cost-type index of nearest and the multisource kinds.
	Cost int `json:"cost,omitempty"`
	// Weights are the aggregate coefficients of the top-k kinds; empty means
	// uniform.
	Weights []float64 `json:"weights,omitempty"`
	// Budget is the component-wise bound of within.
	Budget []float64 `json:"budget,omitempty"`
	// Edges/Ts are the multisource query locations (Ts empty = 0.5 each).
	Edges []int     `json:"edges,omitempty"`
	Ts    []float64 `json:"ts,omitempty"`
	// Engine is "" (CEA, the default) or "lsa".
	Engine string `json:"engine,omitempty"`
	// From/To bound the period kinds' time range.
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// TimeoutMS tightens the per-request deadline; 0 means the server
	// default, negative is rejected.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Period reports whether the request is a *OverPeriod sweep.
func (q *Request) Period() bool {
	return q.Kind == KindSkylinePeriod || q.Kind == KindTopKPeriod
}

// FiniteRange reports whether a period request's [From, To) is a non-empty
// range with finite bounds — the only kind a sweep, or a gateway's split of
// one, can cover.
func (q *Request) FiniteRange() bool {
	return q.From < q.To && !math.IsInf(q.From, 0) && !math.IsInf(q.To, 0)
}

// Scatter reports whether the request is a multisource query the gateway
// fans out to every replica; every other kind queries one Edge/T location.
func (q *Request) Scatter() bool {
	return q.Kind == KindMultiSourceSkyline || q.Kind == KindMultiSourceTopK
}

// ranked reports whether the kind takes K and Weights.
func (q *Request) ranked() bool {
	return q.Kind == KindTopK || q.Kind == KindMultiSourceTopK || q.Kind == KindTopKPeriod
}

// URI renders the request as the equivalent GET request URI, parameters
// sorted and floats in their shortest form — the inverse of the GET decoder.
// The gateway keys routing on this rendering, so every codec's form of one
// query shares a replica and its result-cache entry.
func (q *Request) URI() string {
	v := url.Values{}
	fl := func(key string, f float64) { v.Set(key, strconv.FormatFloat(f, 'g', -1, 64)) }
	csv := func(vals []float64) string {
		parts := make([]string, len(vals))
		for i, f := range vals {
			parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
		}
		return strings.Join(parts, ",")
	}
	if q.Scatter() {
		parts := make([]string, len(q.Edges))
		for i, e := range q.Edges {
			parts[i] = strconv.Itoa(e)
		}
		v.Set("edges", strings.Join(parts, ","))
		if len(q.Ts) > 0 {
			v.Set("ts", csv(q.Ts))
		}
		v.Set("cost", strconv.Itoa(q.Cost))
	} else {
		v.Set("edge", strconv.Itoa(q.Edge))
		fl("t", q.T)
	}
	switch {
	case q.ranked():
		v.Set("k", strconv.Itoa(q.K))
		if len(q.Weights) > 0 {
			v.Set("weights", csv(q.Weights))
		}
	case q.Kind == KindNearest:
		v.Set("k", strconv.Itoa(q.K))
		v.Set("cost", strconv.Itoa(q.Cost))
	case q.Kind == KindWithin:
		v.Set("budget", csv(q.Budget))
	}
	if q.Period() {
		fl("from", q.From)
		fl("to", q.To)
	}
	if q.Engine != "" {
		v.Set("engine", q.Engine)
	}
	if q.TimeoutMS != 0 {
		v.Set("timeout_ms", strconv.Itoa(q.TimeoutMS))
	}
	return "/" + q.Kind + "?" + v.Encode()
}

// QueryName returns the response envelope's Query label for the kind.
func (q *Request) QueryName() string {
	switch q.Kind {
	case KindSkylinePeriod:
		return "skyline_over_period"
	case KindTopKPeriod:
		return "topk_over_period"
	default:
		return strings.ReplaceAll(q.Kind, "/", "_")
	}
}
