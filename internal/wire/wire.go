// Package wire defines what the serving tier speaks, for both the replica
// (internal/serve) and the cluster gateway (internal/cluster): the one
// request model and its three decoders — GET URL, JSON body, MCNB frame
// (request.go, decode.go, binary.go) — the one response writer, and the
// response envelopes, which are also the decode side the gateway uses to
// merge per-replica results. Keeping both ends on one set of types is what makes
// the gateway's merged responses byte-identical to single-node execution:
// a float64 cost decoded from a replica re-encodes to exactly the bytes the
// replica wrote (encoding/json uses the shortest round-tripping
// representation), and the non-finite sentinels map through null in both
// directions.
package wire

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"

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
func (c Costs) MarshalJSON() ([]byte, error) {
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

// Facility is one query answer on the wire.
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

// WriteJSON writes v as the complete JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}
