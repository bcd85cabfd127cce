package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.05, 1}, {1, 10}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{30, 200, 600, 999, 1000, 50000} {
		q := tailQuantile(n)
		if beyond := float64(n) * (1 - q); beyond < 10-1e-9 {
			t.Errorf("n=%d: quantile %v leaves %.2f samples beyond it", n, q, beyond)
		}
		if q > 0.99 {
			t.Errorf("n=%d: quantile %v above p99", n, q)
		}
	}
	if tailQuantile(1000) != 0.99 {
		t.Errorf("1000 samples must support p99")
	}
}

// The expected values are statistics.quantiles(values, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, [3]float64{4, 5, 9}},
	} {
		q1, med, q3 := quartiles(tc.values)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	z := newZipf(512, zipfS)
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, 4000)
		for i := range out {
			out[i] = z.draw(rng)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different ranks")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same ranks")
	}
	counts := make([]int, 512)
	for _, r := range a {
		if r < 0 || r >= 512 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// P(rank 0) is 1/H(512, 1.1) ≈ 0.19; rank 0 must clearly lead rank 9.
	if counts[0] < 600 || counts[0] < 5*counts[9] {
		t.Errorf("rank 0 drawn %d times, rank 9 %d times: not Zipf(1.1)", counts[0], counts[9])
	}
}

// testInstance is a network small enough for unit tests.
func testInstance(t *testing.T) *instance {
	t.Helper()
	in, err := newInstance(300, 150, 64)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRequestMixDeterministicPerSeed(t *testing.T) {
	in := testInstance(t)
	tn, err := in.timeNetwork()
	if err != nil {
		t.Fatal(err)
	}
	mix := func(seed int64) []Request {
		gen := newReqGen(in, seed)
		gen.breaks = tn.Breakpoints(0, 24)[1:]
		pool, err := mixedPool(gen, 64, mixKinds, []codec{codecJSON, codecMCNB})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Request, len(pool))
		for i, p := range pool {
			out[i] = *p.q
		}
		return out
	}
	a, b, c := mix(3), mix(3), mix(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different requests")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds built the same requests")
	}
	// The instance is fixed: both seeds ask about the same edges, in the same
	// kinds; only positions, weights, budgets and windows move.
	for i := range a {
		if a[i].Kind != c[i].Kind || a[i].Edge != c[i].Edge {
			t.Fatalf("request %d: kind/edge moved with the seed: %v vs %v", i, a[i], c[i])
		}
	}
	seenKinds := map[string]bool{}
	for _, q := range a {
		seenKinds[q.Kind] = true
	}
	if len(seenKinds) != 8 {
		t.Errorf("mix covers %d kinds, want all 8", len(seenKinds))
	}
	if s1, s2 := shuffled(64, 5), shuffled(64, 6); reflect.DeepEqual(s1, s2) {
		t.Error("different seeds shuffled alike")
	}
	ops1, _, _ := updateSequence(in, in, 1, 300)
	ops2, _, _ := updateSequence(in, in, 2, 300)
	count := func(ops []updateOp) map[string]int {
		m := map[string]int{}
		for _, op := range ops {
			m[op.kind]++
		}
		return m
	}
	if !reflect.DeepEqual(count(ops1), count(ops2)) {
		t.Errorf("update_mix operation multiset moved with the seed: %v vs %v", count(ops1), count(ops2))
	}
	if c := count(ops1); c[opReadStatic]+c[opReadTimedep] != 276 {
		t.Errorf("reads are %d of 300 operations, want 276", c[opReadStatic]+c[opReadTimedep])
	}
}

// Every codec must carry a request to the same answer the facade gives, and
// the brute-force baseline must agree with the facade.
func TestExpectationsAgreeAcrossOracles(t *testing.T) {
	in := testInstance(t)
	pool, err := mixedPool(newReqGen(in, 1), 24, []string{kindSkyline, kindTopK, kindNearest, kindWithin}, []codec{codecGET})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.expectAll(context.Background(), nil, pool, len(pool)); err != nil {
		t.Fatal(err)
	}
	same := []ivAnswer{{ids: []FacilityID{3, 1, 2}}}
	perm := []ivAnswer{{ids: []FacilityID{1, 2, 3}}}
	if digest(kindSkyline, same) != digest(kindSkyline, perm) {
		t.Error("skyline digests must ignore order")
	}
	if digest(kindTopK, same) == digest(kindTopK, perm) {
		t.Error("top-k digests must respect order")
	}
}

func TestSpanSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		// Request 0: client ⊃ gateway ⊃ two overlapping legs, one inside the other.
		{Name: "client", Req: 0, Start: ms(0), End: ms(100)},
		{Name: "cluster.gateway", Req: 0, Start: ms(10), End: ms(90)},
		{Name: "cluster.leg", Req: 0, Start: ms(20), End: ms(80)},
		{Name: "cluster.leg", Req: 0, Start: ms(30), End: ms(50)},
		// Request 1: a core call with source and device aggregates over the
		// same interval, recorded outermost first.
		{Name: "core.topk", Req: 1, Start: ms(200), End: ms(300)},
		{Name: "storage.source", Req: 1, Start: ms(200), End: ms(300), Busy: ms(60), Count: 40},
		{Name: "storage.device", Req: 1, Start: ms(200), End: ms(300), Busy: ms(25), Count: 30},
	}
	resolve(spans)
	wantParent := []int{-1, 0, 1, 1, -1, 4, 5}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	wantSelf := []int64{ms(20), ms(20), ms(60), ms(20), ms(40), ms(35), ms(25)}
	for i := range spans {
		if self[i] != wantSelf[i] {
			t.Errorf("span %d (%s): self %d ms, want %d ms", i, spans[i].Name, self[i]/1e6, wantSelf[i]/1e6)
		}
	}
	// Along the blocking path the self times add up to the root: client +
	// gateway + the union of the legs, and core + source + device.
	if got := self[0] + self[1] + ms(60); got != ms(100) {
		t.Errorf("request 0 self times sum to %d ms, want 100", got/1e6)
	}
	if got := self[4] + self[5] + self[6]; got != ms(100) {
		t.Errorf("request 1 self times sum to %d ms, want 100", got/1e6)
	}
	selfNS, count := layerSelf(spans)
	if selfNS["cluster.leg"] != ms(80) || count["cluster.leg"] != 2 {
		t.Errorf("layerSelf: legs %d ms in %d spans, want 80 ms in 2", selfNS["cluster.leg"]/1e6, count["cluster.leg"])
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	in := []span{{Name: "client", Start: 1, End: 9, Parent: -1, Req: 4}, {Name: "storage.device", Start: 1, End: 9, Parent: 0, Req: 4, Busy: 3, Count: 2}}
	if err := writeJSONL(path, in); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	var out []span
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("trace round trip: wrote %v, read %v", in, out)
	}
}

// An open loop must charge a stall to the arrivals queued behind it: with one
// sender, arrivals due every 10 ms and a 30 ms service time, arrival n starts
// 20n ms late and its latency, counted from its due time, is 20n + 30 ms.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	var mu sync.Mutex
	var order []int
	res := load{senders: 1, rate: 100, dur: 55 * time.Millisecond, first: 7, send: func(n int) (time.Time, bool) {
		mu.Lock()
		order = append(order, n)
		mu.Unlock()
		time.Sleep(30 * time.Millisecond)
		return time.Now(), n != 9 // the third arrival fails
	}}.run()
	if !reflect.DeepEqual(order, []int{7, 8, 9, 10, 11, 12}) {
		t.Fatalf("arrivals sent %v, want 7..12 (six due within 55 ms at 100/s)", order)
	}
	if res.attempted != 6 || res.failed != 1 || len(res.latMS) != 5 || len(res.lateMS) != 6 {
		t.Fatalf("attempted %d failed %d, %d latencies, %d lateness samples; want 6, 1, 5, 6",
			res.attempted, res.failed, len(res.latMS), len(res.lateMS))
	}
	// Slack for timer granularity on a busy machine: sleeps only overshoot.
	for i, want := range []float64{0, 20, 40, 60, 80, 100} {
		if got := res.lateMS[i]; got < want-1 || got > want+25 {
			t.Errorf("lateness %d = %.1f ms, want about %v", i, got, want)
		}
	}
	if lo, hi := res.latMS[0], res.latMS[len(res.latMS)-1]; lo < 29 || lo > 55 || hi < 129 || hi > 160 {
		t.Errorf("latencies span %.1f–%.1f ms, want about 30–130 (from due time, not send time)", lo, hi)
	}
	if q := res.qps(); math.Abs(q-float64(res.correct())/res.wall.Seconds()) > 1e-9 {
		t.Errorf("qps %v does not count correct answers over wall time", q)
	}
}

func TestClosedLoopLimitAndLatencyFromSend(t *testing.T) {
	res := load{senders: 2, limit: 10, send: func(int) (time.Time, bool) {
		time.Sleep(2 * time.Millisecond)
		return time.Now(), true
	}}.run()
	if res.attempted != 10 || res.failed != 0 || len(res.lateMS) != 0 {
		t.Fatalf("attempted %d failed %d late %d, want 10, 0, 0", res.attempted, res.failed, len(res.lateMS))
	}
	if hi := res.latMS[len(res.latMS)-1]; hi < 2 || hi > 30 {
		t.Errorf("closed-loop latency %.1f ms, want about 2 (from send, no queueing)", hi)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q: want a letter or digit, then letters, digits, _ . -, at most 64", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", f.RunSeconds)
	}
	var got []string
	for _, w := range f.Workloads {
		name(w.Name)
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not one the program runs", w.Name)
		}
	}
	if !reflect.DeepEqual(got, workloadNames) {
		t.Errorf("workloads = %v, want %v", got, workloadNames)
	}

	var e2e []metricDef
	hasSetup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v,\nprogram emits %v", e2e, endToEnd)
	}
	var layers []metricDef
	for _, m := range f.PerLayer {
		name(m.Name)
		layers = append(layers, metricDef{m.Name, m.Unit})
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer = %v,\nprogram emits %v", layers, perLayer)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
}

// A report must refuse to print an end-to-end line with a metric missing and
// must print ledger metrics a workload does not exercise as 0.
func TestReportLines(t *testing.T) {
	r := newReport()
	r.attempted, r.failed = 10, 1
	r.set("setup_s", 1.5)
	if _, err := r.line(endToEnd, true); err == nil {
		t.Error("an end-to-end line with metrics missing must be an error")
	}
	line, err := r.line(perLayer, false)
	if err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Attempted != 10 || line.Failed != 1 {
		t.Errorf("line = %+v, want incorrect, 10 attempted, 1 failed", line)
	}
	if len(line.Metrics) != len(perLayer) || line.Metrics["cluster.merge_us"].Value != 0 {
		t.Errorf("ledger line must carry every per-layer metric, unmeasured ones as 0")
	}
}
