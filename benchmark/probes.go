package main

import (
	"encoding/json"
	"time"
)

// Micro-probes: layers whose calls the benchmark cannot wrap from outside
// (the codecs inside the handlers, the merge inside the gateway, the
// executor inside the server) are timed by replaying the traced pass's own
// requests and answers through the same public functions, one call at a
// time, after the pass.

// batchOf converts a static single-location request to the executor's form,
// as mcnserve does; ok is false for the other kinds.
func batchOf(q *Request) (req BatchRequest, label string, ok bool) {
	eng := engineOption(q.Engine)
	switch q.Kind {
	case kindSkyline:
		label = "skyline_cea"
		if q.Engine == "lsa" {
			label = "skyline_lsa"
		}
		return skylineRequest(locOf(q), eng), label, true
	case kindTopK:
		return topKRequest(locOf(q), weightedSum(q.Weights...), q.K, eng), "topk", true
	case kindNearest:
		return nearestRequest(locOf(q), q.Cost, q.K), "nearest", true
	case kindWithin:
		return withinRequest(locOf(q), costsOf(q.Budget...), eng), "within", true
	}
	return BatchRequest{}, "", false
}

// probeExecutor sends the workload's static single-location requests, in
// arrival order, straight to the server's executor: the time Do takes beyond
// the query's own latency is admission and queueing, the query latency by
// kind is core's share on the flat path, answers from the result cache give
// the hit cost, and the handler's median over the same requests minus Do's
// median is what the HTTP handler adds.
func probeExecutor(e *env, ex *Executor, w *httpWorkload, handlerUS []float64) {
	const calls = 2048
	var (
		doUS, waitUS, hitUS []float64
		byKind              = map[string][]float64{}
		stats               opStats
	)
	for n := 0; n < len(w.seq) && len(doUS) < calls; n++ {
		p := w.pool[w.seq[n]]
		req, label, ok := batchOf(p.q)
		if !ok || p.stream {
			continue
		}
		start := time.Now()
		resp := ex.Do(e.ctx, req)
		wall := time.Since(start)
		if resp.Err != nil {
			continue
		}
		us := float64(wall) / 1e3
		doUS = append(doUS, us)
		waitUS = append(waitUS, float64(wall-resp.Latency)/1e3)
		if resp.Cached {
			hitUS = append(hitUS, us)
			continue
		}
		byKind[label] = append(byKind[label], float64(resp.Latency)/1e3)
		stats.add(resp.Result.Stats)
	}
	if len(doUS) == 0 {
		return
	}
	e.rep.set("engine.queue_wait_us", mean(waitUS))
	e.rep.set("rescache.hit_us", mean(hitUS))
	for label, us := range byKind {
		e.rep.set("core."+label+"_self_us", mean(us))
	}
	stats.report(e.rep)
	if len(handlerUS) > 0 {
		e.rep.set("serve.handler_overhead_us", median(handlerUS)-median(doUS))
	}
}

// reportCache reports what the result cache did between two snapshots of its
// counters.
func reportCache(rep *report, before, after CacheStats) {
	if lookups := float64(after.Lookups() - before.Lookups()); lookups > 0 {
		rep.set("rescache.hit_rate", float64(after.Hits+after.Coalesced-before.Hits-before.Coalesced)/lookups)
	}
	rep.set("rescache.coalesced", float64(after.Coalesced-before.Coalesced))
	rep.set("rescache.evictions", float64(after.Evicted-before.Evicted))
}

// timeEach returns the mean time of fn over items, in microseconds.
func timeEach[T any](items []T, fn func(T)) float64 {
	if len(items) == 0 {
		return 0
	}
	start := time.Now()
	for _, it := range items {
		fn(it)
	}
	return float64(time.Since(start)) / 1e3 / float64(len(items))
}

// probeWire replays observed requests and answers through both codecs.
func probeWire(e *env, seen []observed) {
	if len(seen) == 0 {
		return
	}
	type sample struct {
		jsonReq, mcnbReq []byte
		d                decoded
	}
	samples := make([]sample, 0, len(seen))
	for _, o := range seen {
		j, err1 := json.Marshal(o.p.q)
		b, err2 := encodeRequest(o.p.q)
		if err1 == nil && err2 == nil {
			samples = append(samples, sample{j, b, o.d})
		}
	}
	e.rep.set("wire.decode_json_us", timeEach(samples, func(s sample) { decodeRequestBody(s.jsonReq, false) })) //nolint:errcheck // timed only
	e.rep.set("wire.decode_mcnb_us", timeEach(samples, func(s sample) { decodeRequestBody(s.mcnbReq, true) }))  //nolint:errcheck // timed only
	var jsonBytes, mcnbBytes float64
	e.rep.set("wire.encode_json_us", timeEach(samples, func(s sample) {
		var out []byte
		if s.d.period != nil {
			out, _ = json.Marshal(s.d.period)
		} else {
			out, _ = json.Marshal(s.d.result)
		}
		jsonBytes += float64(len(out))
	}))
	e.rep.set("wire.encode_mcnb_us", timeEach(samples, func(s sample) {
		var out []byte
		if s.d.period != nil {
			out, _ = encodePeriodResult(s.d.period)
		} else {
			out, _ = encodeResult(s.d.result)
		}
		mcnbBytes += float64(len(out))
	}))
	e.rep.set("wire.response_bytes_json", jsonBytes/float64(len(samples)))
	e.rep.set("wire.response_bytes_mcnb", mcnbBytes/float64(len(samples)))
}

// probeMerge replays observed multi-source answers through the gateway's
// merge: both replicas hold the whole network, so each returns the whole
// answer and the merge deduplicates two copies of it.
func probeMerge(e *env, seen []observed) {
	var multi []observed
	for _, o := range seen {
		if o.p.q.Scatter() {
			multi = append(multi, o)
		}
	}
	if len(multi) == 0 {
		return
	}
	e.rep.set("cluster.merge_us", timeEach(multi, func(o observed) {
		part := &Result{Facilities: toCoreFacilities(o.d.result.Facilities), Stats: o.d.result.Stats}
		if o.p.q.Kind == kindMultiTopK {
			mergeTopK(o.p.q.K, part, part)
		} else {
			mergeSkylines(part, part)
		}
	}))
}
