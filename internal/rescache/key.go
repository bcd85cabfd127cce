package rescache

import (
	"encoding/binary"
	"math"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// Query kinds as key bytes. They mirror engine.Kind but are fixed here so a
// reordering of the engine enum can never silently alias cache entries.
const (
	KindSkyline byte = 1
	KindTopK    byte = 2
	KindNearest byte = 3
	KindWithin  byte = 4
)

// KeySpec is everything that identifies a query's result. Key canonicalizes
// it into a cache key: equivalent queries — the same location expressed at
// the same offset, a weight vector scaled by a positive constant, any
// instant inside the same elementary time interval — map to the same bytes.
type KeySpec struct {
	// Kind is one of the Kind* bytes above.
	Kind byte
	// Interval is the elementary time-interval index for time-dependent
	// queries, or -1 for static ones.
	Interval int
	// Axis numbers the time axis Interval indexes into (time-dependent
	// queries only; static ones leave it 0). A network advances it whenever
	// its breakpoints change, so an entry computed under one interval
	// numbering can never answer a query under another.
	Axis uint64
	// Engine and NoEnhancements select the algorithm variant. They are part
	// of the key because hits must be byte-identical to what the same
	// request would compute, and the engines report different work stats.
	// Cache.Query fills them in from the query's options.
	Engine         byte
	NoEnhancements bool
	// Edge and T are the query location; Cache.Query fills them in.
	Edge graph.EdgeID
	T    float64
	// Agg is the top-k aggregate (Kind == KindTopK only).
	Agg vec.Aggregate
	// K is the result count for top-k and nearest queries.
	K int
	// CostIdx is the cost type for nearest queries.
	CostIdx int
	// Budget is the cost budget vector for within queries.
	Budget vec.Costs
}

// Key returns the canonical cache key for s, the L1 norm the key's weight
// vector was normalized at (0 when the kind has no aggregate), and whether
// the query is cacheable at all. Opaque aggregates (vec.Func and any type
// this package does not know) are not canonicalizable, so ok is false and
// the query bypasses the cache.
func (s KeySpec) Key() (key string, scale float64, ok bool) {
	b := make([]byte, 0, 96) // on the stack; every kind's key fits up to d = 5
	b = append(b, s.Kind, s.Engine)
	if s.NoEnhancements {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Interval)+1) // -1 → 0
	b = binary.LittleEndian.AppendUint64(b, s.Axis)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Edge))
	b = appendFloat(b, s.T)

	switch s.Kind {
	case KindSkyline:
	case KindTopK:
		var coef []float64
		var isMax byte
		switch a := s.Agg.(type) {
		case vec.Weighted:
			coef = a.Coef
		case *vec.Weighted:
			coef = a.Coef
		case vec.MaxAgg:
			coef, isMax = a.Coef, 1
		case *vec.MaxAgg:
			coef, isMax = a.Coef, 1
		default:
			return "", 0, false
		}
		b = append(b, isMax)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.K))
		b, scale, ok = appendNormalized(b, coef)
		if !ok {
			return "", 0, false
		}
	case KindNearest:
		b = binary.LittleEndian.AppendUint64(b, uint64(s.K))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.CostIdx))
	case KindWithin:
		for _, v := range s.Budget {
			b = appendFloat(b, v)
		}
	default:
		return "", 0, false
	}
	return string(b), scale, true
}

// appendNormalized appends coef scaled to unit L1 norm and returns the norm
// it divided by. Proportional weight vectors therefore share a key: IEEE
// division is correctly rounded, so coef and coef·k (computed with exact
// products) normalize to bit-identical quotients. A zero or non-finite norm
// leaves the coefficients raw with scale 0 (nothing to normalize by; such
// vectors still cache, they just never alias a scaled variant).
func appendNormalized(b []byte, coef []float64) ([]byte, float64, bool) {
	norm := 0.0
	for _, a := range coef {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return b, 0, false
		}
		norm += a
	}
	scale := norm
	if norm <= 0 || math.IsInf(norm, 0) {
		scale = 0
		norm = 1
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(coef)))
	for _, a := range coef {
		b = appendFloat(b, a/norm)
	}
	return b, scale, true
}

// appendFloat appends v's IEEE bits with -0 folded into +0 so the two equal
// values share a key.
func appendFloat(b []byte, v float64) []byte {
	if v == 0 {
		v = 0
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
