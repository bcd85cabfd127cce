package core

import (
	"context"
	"errors"
	"iter"

	"mcn/internal/expand"
	"mcn/internal/graph"
	"mcn/internal/vec"
)

// errStreamStopped is the sentinel the drivers return when a streaming
// consumer stops early (breaks out of its range loop). It never escapes the
// Seq adapters: an early break is a normal outcome, not an error.
var errStreamStopped = errors.New("core: stream consumer stopped")

// SkylineSeq returns a range-over-func iterator streaming each confirmed
// skyline facility the moment the growing/shrinking driver proves it
// undominated — the same facilities, in the same progressive order, that a
// batch Skyline call delivers through Options.OnResult. Cost vectors may
// still carry unknown components at emission time (the first-NN shortcut
// reports before all d expansions reach the facility); the batch call's
// final Result is the surface for complete vectors.
//
// Breaking out of the range loop stops the underlying query at the next
// emission or driver round, releasing its expansion work early. A
// cancellation of ctx or an internal failure is yielded once as a non-nil
// error (with a zero Facility) and terminates the stream. The query runs
// entirely inside the consumer's loop: no goroutine is spawned and nothing
// is retained once the loop exits.
func SkylineSeq(ctx context.Context, src expand.Source, loc graph.Location, opt Options) iter.Seq2[Facility, error] {
	return func(yield func(Facility, error) bool) {
		opt = opt.BindContext(ctx)
		sc := expand.Acquire(src)
		defer sc.Release()
		shared := engineSource(src, opt.Engine, sc)
		exps, err := perCost(shared, loc, sc, opt.Interrupt)
		if err != nil {
			yield(Facility{}, err)
			return
		}
		// stopped guards against yielding after the consumer broke out of
		// its loop: the driver may still surface an interrupt or expansion
		// error while winding down the round, and a range-over-func must
		// never be re-entered once yield returned false.
		stopped := false
		s := newSkylineRun(shared, sc, exps, opt, func(f Facility) bool {
			if !yield(f, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err := s.run(); err != nil && !stopped && !errors.Is(err, errStreamStopped) {
			yield(Facility{}, err)
		}
	}
}

// TopKSeq returns a range-over-func iterator yielding facilities in
// ascending aggregate-score order, on demand and without fixing k in
// advance — the incremental top-k query (paper Sec. V) as a streaming
// surface. Ranged to exhaustion it enumerates every facility reachable
// under at least one cost type; breaking out of the loop simply abandons
// the search, so "pull until satisfied" is the intended use. A ctx
// cancellation or internal failure is yielded once as a non-nil error.
func TopKSeq(ctx context.Context, src expand.Source, loc graph.Location, agg vec.Aggregate, opt Options) iter.Seq2[Facility, error] {
	return func(yield func(Facility, error) bool) {
		it, err := NewTopKIterator(src, loc, agg, opt.BindContext(ctx))
		if err != nil {
			yield(Facility{}, err)
			return
		}
		defer it.Close()
		for {
			f, ok, err := it.Next()
			if err != nil {
				yield(Facility{}, err)
				return
			}
			if !ok {
				return
			}
			if !yield(f, nil) {
				return
			}
		}
	}
}
