package wire

import (
	"encoding/json"
	"math"
	"strconv"

	"mcn/internal/core"
)

// jsonBuf appends the JSON of the query envelopes to b, without reflection,
// as exactly the bytes encoding/json gives the same struct (pinned by
// TestJSONEnvelopeMatchesEncodingJSON and FuzzJSONEnvelope), except that a
// non-finite score renders as null, as a non-finite cost does. err latches
// the first value encoding/json would refuse: a non-finite latency or bound.
type jsonBuf struct {
	b   []byte
	err error
}

// AppendResult appends r's JSON encoding, without a newline, to dst.
func AppendResult(dst []byte, r *Result) ([]byte, error) {
	e := jsonBuf{b: dst}
	e.str(`{"query":`, r.Query)
	e.int(`,"count":`, r.Count)
	array(&e, `,"facilities":`, r.Facilities, e.facility)
	e.stats(r.Stats)
	e.float(`,"latency_ms":`, r.LatencyMS)
	return append(e.b, '}'), e.err
}

// AppendPeriodResult appends pr's JSON encoding, without a newline, to dst.
func AppendPeriodResult(dst []byte, pr *PeriodResult) ([]byte, error) {
	e := jsonBuf{b: dst}
	e.str(`{"query":`, pr.Query)
	e.int(`,"count":`, pr.Count)
	array(&e, `,"intervals":`, pr.Intervals, func(iv *Interval) {
		e.float(`{"from":`, iv.From)
		e.float(`,"to":`, iv.To)
		e.int(`,"count":`, iv.Count)
		array(&e, `,"facilities":`, iv.Facilities, e.facility)
		e.stats(iv.Stats)
		e.b = append(e.b, '}')
	})
	e.float(`,"latency_ms":`, pr.LatencyMS)
	return append(e.b, '}'), e.err
}

// AppendFacility appends f's JSON encoding (an NDJSON line) to dst.
func AppendFacility(dst []byte, f *Facility) []byte {
	e := jsonBuf{b: dst}
	e.facility(f)
	return e.b
}

// AppendStreamDone appends an NDJSON stream's terminal line (keys sorted, as a map) to dst.
func AppendStreamDone(dst []byte, count int, latencyMS float64) ([]byte, error) {
	e := jsonBuf{b: dst}
	e.int(`{"count":`, count)
	e.float(`,"done":true,"latency_ms":`, latencyMS)
	return append(e.b, '}'), e.err
}

// appendCosts is the Costs rule.
func appendCosts(dst []byte, c Costs) []byte {
	dst = append(dst, '[')
	for i, v := range c {
		if i > 0 {
			dst = append(dst, ',')
		}
		if finite(v) {
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		} else {
			dst = append(dst, "null"...)
		}
	}
	return append(dst, ']')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// array appends key and xs, each element by elem; nil is null.
func array[T any](e *jsonBuf, key string, xs []T, elem func(*T)) {
	e.b = append(e.b, key...)
	if xs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(&xs[i])
	}
	e.b = append(e.b, ']')
}

func (e *jsonBuf) str(key, s string) {
	e.b = append(e.b, key...)
	if _, ok := queryKinds[s]; ok { // a Query label: plain ASCII, quoted as is
		e.b = append(append(append(e.b, '"'), s...), '"')
		return
	}
	q, _ := json.Marshal(s) // a string always marshals
	e.b = append(e.b, q...)
}

func (e *jsonBuf) int(key string, n int) {
	e.b = strconv.AppendInt(append(e.b, key...), int64(n), 10)
}

// float is encoding/json's float64 rule: 'f' format, or 'e' below 1e-6 and
// from 1e21 up with a two-digit negative exponent shortened (e-07 → e-7).
func (e *jsonBuf) float(key string, f float64) {
	if !finite(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *jsonBuf) facility(f *Facility) {
	e.b = strconv.AppendUint(append(e.b, `{"id":`...), uint64(f.ID), 10)
	e.b = appendCosts(append(e.b, `,"costs":`...), f.Costs)
	switch {
	case f.Score == 0:
	case finite(f.Score):
		e.float(`,"score":`, f.Score)
	default: // an unreachable facility's +Inf: null, as in Costs
		e.b = append(e.b, `,"score":null`...)
	}
	e.b = append(e.b, '}')
}

func (e *jsonBuf) stats(s core.Stats) {
	e.int(`,"stats":{"Pops":`, s.Pops)
	e.int(`,"GrowingPops":`, s.GrowingPops)
	e.int(`,"NodeExpansions":`, s.NodeExpansions)
	e.int(`,"PrunedNodes":`, s.PrunedNodes)
	e.int(`,"Tracked":`, s.Tracked)
	e.b = append(e.b, '}')
}
