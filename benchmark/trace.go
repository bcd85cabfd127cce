package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Traced passes run one client, so the
// spans of a request nest by time containment and Parent is resolved from
// that when the pass ends (request ids inside the product are a later
// change). A span with Busy > 0 is an aggregate: Count calls made during its
// parent that were busy for Busy ns in total — what the device and source
// shims record, because one disk query makes thousands of such calls.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0 time.Time
	// off suspends recording, for the reference window that tracing's
	// overhead is measured against.
	off atomic.Bool
	mu  sync.Mutex
	// spans is appended to from handler goroutines of the in-process stacks.
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a call span of request req.
func (t *tracer) add(name string, req int, start, end time.Time) {
	t.addBusy(name, req, start, end, 0, 0)
}

// addBusy records an aggregate child of the request's span that covers
// [start, end].
func (t *tracer) addBusy(name string, req int, start, end time.Time, busy time.Duration, count int64) {
	if t.off.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: -1,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Busy: int64(busy), Count: count})
	t.mu.Unlock()
}

// resolve assigns every span its parent: the tightest span of the same
// request that contains it. Aggregates nest under one another in the order
// they were recorded (source calls contain device reads).
func resolve(spans []span) {
	byReq := map[int][]int{}
	for i := range spans {
		spans[i].Parent = -1
		byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
	}
	for _, idx := range byReq {
		// Outermost first; on equal intervals the earlier-recorded aggregate
		// is the outer one.
		sort.SliceStable(idx, func(a, b int) bool {
			x, y := spans[idx[a]], spans[idx[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			return x.End > y.End
		})
		var stack []int
		for _, i := range idx {
			// A span never nests under one of its own name: parallel
			// scatter legs are siblings even when one outlasts the other.
			for len(stack) > 0 && (spans[stack[len(stack)-1]].End < spans[i].End ||
				spans[stack[len(stack)-1]].Name == spans[i].Name) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[i].Parent = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}
}

// selfTimes returns each span's self time in ns: its own time minus the part
// its children cover. A call span's own time is its duration and its
// children's cover is the union of their intervals (scatter legs overlap);
// an aggregate's own time is Busy, and an aggregate child covers Busy of its
// parent. resolve must have run.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		own := s.End - s.Start
		if s.Busy > 0 {
			own = s.Busy
		}
		var covered int64
		var calls [][2]int64
		for _, c := range children[i] {
			if spans[c].Busy > 0 {
				covered += spans[c].Busy
			} else {
				calls = append(calls, [2]int64{spans[c].Start, spans[c].End})
			}
		}
		sort.Slice(calls, func(a, b int) bool { return calls[a][0] < calls[b][0] })
		var hi int64 = -1 << 62
		for _, iv := range calls {
			if iv[0] > hi {
				covered += iv[1] - iv[0]
				hi = iv[1]
			} else if iv[1] > hi {
				covered += iv[1] - hi
				hi = iv[1]
			}
		}
		self[i] = own - covered
	}
	return self
}

// layerSelf sums self time (ns) and counts spans per span name.
func layerSelf(spans []span) (selfNS map[string]int64, count map[string]int64) {
	self := selfTimes(spans)
	selfNS, count = map[string]int64{}, map[string]int64{}
	for i, s := range spans {
		selfNS[s.Name] += self[i]
		count[s.Name]++
	}
	return selfNS, count
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
