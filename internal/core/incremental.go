package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// ErrIteratorClosed is returned by TopKIterator.Next after Close.
var ErrIteratorClosed = errors.New("core: top-k iterator closed")

// TopKIterator is the incremental top-k query of the paper (Sec. V): k is
// not known in advance, and each Next call reports the facility with the
// next-smallest aggregate cost. Nothing is ever eliminated — invoked |P|
// times the iterator enumerates every facility reachable under at least one
// cost type in ascending score order.
//
// Iterators outlive the call that created them and hold pooled expansion
// state; callers must Close them when done pulling results. Next is
// single-goroutine, but Close is safe to call from any goroutine, any number
// of times — it waits for an in-flight Next to return (the closed flag makes
// it return promptly, at its next poll) and releases the state exactly once,
// so the scratch is never handed back to the pool while a Next is still
// expanding on it.
type TopKIterator struct {
	agg vec.Aggregate
	opt Options
	d   int

	// src and loc start the expansions on the first Next, so that an
	// interrupt during their set-up is reported by Next like any other.
	src       expand.Source
	loc       graph.Location
	exps      []*expand.Expansion // nil until the first Next starts them
	exhausted []bool

	tracked trackedSet
	ready   []*tracked // pinned, unreported, sorted by (score, id)
	drained bool
	stats   Stats

	sc        *expand.Scratch
	closed    atomic.Bool
	closeOnce sync.Once
	// mu serialises Next against the releasing half of Close: Close may not
	// return the scratch while a Next is still expanding on it.
	mu sync.Mutex
}

// NewTopKIterator starts an incremental top-k query at loc. The per-cost
// expansions start on the first Next, which reports an error of their
// set-up (an invalid location, a failed read, an interrupt).
func NewTopKIterator(src expand.Source, loc graph.Location, agg vec.Aggregate, opt Options) (*TopKIterator, error) {
	if agg.Dims() != src.D() {
		return nil, fmt.Errorf("core: aggregate expects %d cost types, network has %d", agg.Dims(), src.D())
	}
	sc := expand.Acquire(src)
	return &TopKIterator{
		agg:       agg,
		opt:       opt,
		d:         src.D(),
		src:       engineSource(src, opt.Engine, sc),
		loc:       loc,
		exhausted: make([]bool, src.D()),
		tracked:   newTrackedSet(),
		sc:        sc,
	}, nil
}

// Close ends the query and releases its expansion state. It is idempotent
// and safe for concurrent use: however many goroutines race on it, the
// scratch is released exactly once, and never before an in-flight Next has
// returned (the closed flag aborts it at its next poll). After Close, Next
// returns ErrIteratorClosed.
func (it *TopKIterator) Close() error {
	it.closed.Store(true)
	it.closeOnce.Do(func() {
		it.mu.Lock() // drain an in-flight Next before releasing its scratch
		defer it.mu.Unlock()
		it.sc.Release()
	})
	return nil
}

// Stats returns the work counters accumulated so far.
func (it *TopKIterator) Stats() Stats {
	s := it.stats
	for _, x := range it.exps {
		s.NodeExpansions += x.NodeCount()
	}
	return s
}

// Next reports the facility with the next-smallest aggregate cost. ok is
// false once every reachable facility has been reported.
func (it *TopKIterator) Next() (Facility, bool, error) {
	it.mu.Lock()
	defer it.mu.Unlock()
	for {
		if it.closed.Load() {
			return Facility{}, false, ErrIteratorClosed
		}
		if it.exps == nil {
			exps, err := perCost(it.src, it.loc, it.sc, it.opt.Interrupt)
			if err != nil {
				return Facility{}, false, err
			}
			it.exps = exps
		}
		if f, ok := it.tryReport(); ok {
			return f, true, nil
		}
		if it.allExhausted() {
			it.drainFill()
			if len(it.ready) == 0 {
				return Facility{}, false, nil
			}
			return it.pop(), true, nil
		}
		progressed, err := it.advance()
		if err != nil {
			return Facility{}, false, err
		}
		if !progressed && !it.allExhausted() {
			return Facility{}, false, fmt.Errorf("core: incremental top-k made no progress")
		}
	}
}

// tryReport checks the paper's three reporting conditions for the head of
// the ready queue: it is pinned (by construction), it has the smallest score
// among pinned unreported facilities (queue order), and no unpinned
// candidate's aggregate lower bound — nor the bound f(t₁,…,t_d) for
// facilities not yet encountered — is smaller.
func (it *TopKIterator) tryReport() (Facility, bool) {
	if len(it.ready) == 0 {
		return Facility{}, false
	}
	bestScore := it.ready[0].score

	heads := make(vec.Costs, it.d)
	for i, x := range it.exps {
		heads[i] = x.HeadKey()
	}
	if it.agg.Score(heads) < bestScore {
		return Facility{}, false // an unseen facility could still score lower
	}
	for _, q := range it.tracked.order {
		if q.pinned {
			continue
		}
		if it.agg.Score(q.costs.FillUnknown(heads)) < bestScore {
			return Facility{}, false
		}
	}
	return it.pop(), true
}

func (it *TopKIterator) pop() Facility {
	tr := it.ready[0]
	it.ready = it.ready[1:]
	return Facility{ID: tr.id, Costs: tr.costs.Clone(), Score: tr.score}
}

// advance performs one round-robin pass: each live expansion reports its
// next NN.
func (it *TopKIterator) advance() (bool, error) {
	progressed := false
	for i := 0; i < it.d; i++ {
		if it.exhausted[i] {
			continue
		}
		p, c, ok, err := it.exps[i].Next()
		if err != nil {
			return false, err
		}
		if !ok {
			it.exhausted[i] = true
			continue
		}
		progressed = true
		it.stats.Pops++
		tr := it.tracked.byID[p]
		if tr == nil {
			tr = it.tracked.add(p, it.d)
			it.stats.Tracked++
		}
		pinnedNow, err := tr.setCost(i, c)
		if err != nil {
			return false, err
		}
		if pinnedNow {
			it.push(tr)
		}
	}
	return progressed, nil
}

func (it *TopKIterator) push(tr *tracked) {
	tr.score = it.agg.Score(tr.costs)
	at := sort.Search(len(it.ready), func(i int) bool { return tr.before(it.ready[i]) })
	it.ready = append(it.ready, nil)
	copy(it.ready[at+1:], it.ready[at:])
	it.ready[at] = tr
}

// drainFill closes the query once the network is exhausted: facilities never
// popped under some cost type are unreachable there (+Inf).
func (it *TopKIterator) drainFill() {
	if it.drained {
		return
	}
	it.drained = true
	for _, tr := range it.tracked.order {
		if tr.pinned {
			continue
		}
		for j := range tr.costs {
			if vec.IsUnknown(tr.costs[j]) {
				tr.costs[j] = math.Inf(1)
				tr.known++
			}
		}
		tr.pinned = true
		it.push(tr)
	}
}

func (it *TopKIterator) allExhausted() bool {
	for _, e := range it.exhausted {
		if !e {
			return false
		}
	}
	return true
}
