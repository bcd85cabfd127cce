package bench

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a concurrency-safe log-linear latency histogram: values below
// histSub microseconds get one bucket each, and every power-of-two octave
// above is split into histSub sub-buckets, bounding a quantile's relative
// error at 1/histSub (~3%) over the whole range with one flat counter array
// and no locks — the soak clients record into it from every goroutine.
type Hist struct {
	counts [histBuckets]atomic.Int64
	n      atomic.Int64
}

const (
	histSub = 32
	// Exponents 5..63 each contribute histSub buckets after the linear
	// region's histSub, so uint64 microsecond values can never overflow the
	// array.
	histBuckets = 60 * histSub
)

// bucketIndex maps a microsecond value to its bucket.
func bucketIndex(us uint64) int {
	if us < histSub {
		return int(us)
	}
	exp := uint(bits.Len64(us)) - 1
	return int((uint64(exp)-4)*histSub + (us >> (exp - 5)) - histSub)
}

// bucketValue returns a bucket's lower bound, saturating at the maximum
// Duration for the top octaves a Duration-sized sample can never reach.
func bucketValue(idx int) time.Duration {
	if idx < histSub {
		return time.Duration(idx) * time.Microsecond
	}
	exp := uint(idx/histSub) + 4
	off := uint64(idx % histSub)
	us := (histSub + off) << (exp - 5)
	if us > math.MaxInt64/uint64(time.Microsecond) {
		return math.MaxInt64
	}
	return time.Duration(us) * time.Microsecond
}

// Record adds one latency sample.
func (h *Hist) Record(d time.Duration) {
	var us uint64
	if d > 0 {
		us = uint64(d / time.Microsecond)
	}
	h.counts[bucketIndex(us)].Add(1)
	h.n.Add(1)
}

// Quantile returns the latency at quantile q in (0, 1] — the lower bound of
// the bucket where the cumulative count reaches ceil(q·n).
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		if cum += h.counts[i].Load(); cum >= rank {
			return bucketValue(i)
		}
	}
	return bucketValue(histBuckets - 1)
}
