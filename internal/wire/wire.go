// Package wire defines what the serving tier speaks, for both the replica
// (internal/serve) and the cluster gateway (internal/cluster): the one
// request model and its three decoders — GET URL, JSON body, MCNB frame
// (request.go, decode.go, binary.go) — the one response writer and JSON
// encoder (json.go), and the response envelopes, which clients decode with
// the same types. Every float is written in a shortest round-tripping form,
// so a decoded float64 cost re-encodes to exactly the bytes the replica
// wrote. A non-finite cost or score is written as null; a null cost decodes
// to NaN, but a null score to zero (see Facility).
package wire

import (
	"encoding/json"
	"math"

	"mcn/internal/core"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Costs renders a cost vector with non-finite components as null: NaN marks
// a component the search never needed (Nearest fills only the queried cost
// type) and +Inf marks unreachability — JSON numbers support neither. On
// decode, null maps back to the NaN sentinel (the Inf/NaN distinction is
// not recoverable from the wire, and nothing downstream needs it: both mean
// "no finite cost").
type Costs []float64

// MarshalJSON implements json.Marshaler.
func (c Costs) MarshalJSON() ([]byte, error) { return appendCosts(nil, c), nil }

// UnmarshalJSON implements json.Unmarshaler; null components decode to NaN.
func (c *Costs) UnmarshalJSON(data []byte) error {
	var raw []*float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Costs, len(raw))
	for i, p := range raw {
		if p == nil {
			out[i] = math.NaN()
		} else {
			out[i] = *p
		}
	}
	*c = out
	return nil
}

// Facility is one query answer on the wire. A non-finite score (the +Inf of
// a facility no location reaches) renders as JSON null, as a non-finite cost
// does; encoding/json decodes that null to a zero score. Facility has no
// UnmarshalJSON to map it back: the method would be promoted into every
// struct that embeds a Facility, such as an NDJSON line with its done and
// error fields, and decode those fields away.
type Facility struct {
	ID    graph.FacilityID `json:"id"`
	Costs Costs            `json:"costs"`
	Score float64          `json:"score,omitempty"`
}

// Result is the envelope of every buffered query endpoint.
type Result struct {
	Query      string     `json:"query"`
	Count      int        `json:"count"`
	Facilities []Facility `json:"facilities"`
	Stats      core.Stats `json:"stats"`
	LatencyMS  float64    `json:"latency_ms"`
}

// Interval is one maximal sub-interval of a period query's answer: a
// constant preferred set between From and To.
type Interval struct {
	From       float64    `json:"from"`
	To         float64    `json:"to"`
	Count      int        `json:"count"`
	Facilities []Facility `json:"facilities"`
	Stats      core.Stats `json:"stats"`
}

// PeriodResult is the envelope of the *OverPeriod endpoints; Count is the
// number of intervals.
type PeriodResult struct {
	Query     string     `json:"query"`
	Count     int        `json:"count"`
	Intervals []Interval `json:"intervals"`
	LatencyMS float64    `json:"latency_ms"`
}

// MarshalJSON implements json.Marshaler through AppendFacility.
func (f Facility) MarshalJSON() ([]byte, error) { return AppendFacility(nil, &f), nil }

// MarshalJSON implements json.Marshaler through AppendResult, into a buffer
// sized for facilities of a few cost components.
func (r Result) MarshalJSON() ([]byte, error) {
	return AppendResult(make([]byte, 0, 256+128*len(r.Facilities)), &r)
}

// MarshalJSON implements json.Marshaler through AppendPeriodResult.
func (pr PeriodResult) MarshalJSON() ([]byte, error) { return AppendPeriodResult(nil, &pr) }

// Error is the body of every non-200 response.
type Error struct {
	Error string `json:"error"`
}

// FromFacilities converts core query answers to their wire form.
func FromFacilities(fs []core.Facility) []Facility {
	out := make([]Facility, len(fs))
	for i, f := range fs {
		out[i] = Facility{ID: f.ID, Costs: Costs(f.Costs), Score: f.Score}
	}
	return out
}

// ToFacilities converts wire facilities back to core form, for re-merging
// decoded replica results through the core dominance filter.
func ToFacilities(fs []Facility) []core.Facility {
	out := make([]core.Facility, len(fs))
	for i, f := range fs {
		out[i] = core.Facility{ID: f.ID, Costs: vec.Costs(f.Costs), Score: f.Score}
	}
	return out
}
