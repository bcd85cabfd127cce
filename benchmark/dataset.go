package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

// instance is one generated network: the graph, its in-memory form (the
// oracle for every static query kind) and the pool of query places. All three
// are fixed by datasetSeed, so every run of a workload asks around the same
// places; --seed decides exactly where (place), with which weights and
// budgets, and in which order.
type instance struct {
	nodes, facilities int
	g                 *Graph
	mem               *Network
	places            []Location
	genS              float64
}

// place returns query place i, moved along its edge by up to placeJitter/2
// either way as rng decides: a different location under every seed, within
// sight of the same one, so the work it takes stays the place's own.
func (in *instance) place(i int, rng *rand.Rand) Location {
	loc := in.places[i%len(in.places)]
	// Never exactly 0: wire.Request marshals "t" with omitempty, so a JSON
	// request cannot say t=0 (the server reads an absent t as 0.5).
	loc.T = min(max(loc.T+placeJitter*(rng.Float64()-0.5), 0.001), 0.999)
	return loc
}

// neighbour returns an edge that shares an end-node with e (e itself on a
// dead-end stub).
func (in *instance) neighbour(e EdgeID) EdgeID {
	edge := in.g.Edge(e)
	for _, v := range []NodeID{edge.V, edge.U} {
		for _, arc := range in.g.Arcs(v) {
			if arc.Edge != e {
				return arc.Edge
			}
		}
	}
	return e
}

func newInstance(nodes, facilities, queryPlaces int) (*instance, error) {
	start := time.Now()
	g, err := synthetic(SyntheticConfig{Nodes: nodes, Facilities: facilities, D: costTypes, Seed: datasetSeed})
	if err != nil {
		return nil, fmt.Errorf("generate network: %w", err)
	}
	in := &instance{nodes: nodes, facilities: facilities, g: g, genS: time.Since(start).Seconds()}
	in.mem = fromGraph(g)
	in.places = randomQueries(g, queryPlaces, datasetSeed+1)
	return in, nil
}

// serveArgs are the mcnserve flags that make a server generate exactly this
// instance.
func (in *instance) serveArgs() []string {
	return []string{flagSynthetic, flagNodes, fmt.Sprint(in.nodes), flagFacilities, fmt.Sprint(in.facilities),
		flagD, fmt.Sprint(costTypes), flagSeed, fmt.Sprint(datasetSeed)}
}

// timeNetwork builds the time-dependent view mcnserve -timedep builds.
func (in *instance) timeNetwork() (*TimeNetwork, error) {
	tn := timeDependent(in.g)
	if err := attachSynthProfiles(tn, in.g.NumEdges()/10, datasetSeed); err != nil {
		return nil, err
	}
	return tn, nil
}

// reqGen draws request parameters from the run's seed over an instance's
// edge pool.
type reqGen struct {
	rng  *rand.Rand
	in   *instance
	next int
	// breaks is the time axis period queries are cut from; workloads without
	// period queries leave it nil.
	breaks []float64
}

func newReqGen(in *instance, seed int64) *reqGen {
	return &reqGen{rng: rand.New(rand.NewSource(seed)), in: in}
}

// place returns the next pool place, as this seed sees it.
func (g *reqGen) place() Location {
	loc := g.in.place(g.next, g.rng)
	g.next++
	return loc
}

func (g *reqGen) floats(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*g.rng.Float64()
	}
	return out
}

// request builds one request of the given kind at the next pool place.
func (g *reqGen) request(kind, engine string) *Request {
	q := &Request{Kind: kind, Engine: engine}
	switch kind {
	case kindMultiSkyline, kindMultiTopK:
		// Two people a street apart: the second source is on an edge that
		// meets the first one's. Between two unrelated places a multi-source
		// top-k takes up to a hundred times longer than any other query
		// here, and a tenth of the requests then owns the whole tail.
		a := g.place()
		q.Edges, q.Ts = []int{int(a.Edge), int(g.in.neighbour(a.Edge))}, []float64{a.T, g.rng.Float64()}
		q.Cost = g.next % costTypes
	default:
		loc := g.place()
		q.Edge, q.T = int(loc.Edge), loc.T
	}
	switch kind {
	// Weights and budgets vary with the seed inside bands narrow enough that
	// the work of a query is set by where it is asked, not by the seed.
	case kindTopK, kindTopKPeriod:
		q.K, q.Weights = 4, g.floats(costTypes, 0.5, 1)
	case kindMultiTopK:
		q.K, q.Weights = 4, g.floats(len(q.Edges), 0.5, 1)
	case kindNearest:
		q.K, q.Cost = 4, g.next%costTypes
	case kindWithin:
		q.Budget = g.floats(costTypes, 4, 4.5)
	}
	if q.Period() {
		// From one breakpoint of the time axis to the periodIntervals-th
		// after it: every period query sweeps the same number of elementary
		// intervals, wherever the seed puts it.
		i := g.rng.Intn(len(g.breaks) - periodIntervals)
		q.From, q.To = g.breaks[i], g.breaks[i+periodIntervals]
	}
	return q
}

// ivAnswer is the answer on one time interval; static kinds have exactly
// one, with From = To = 0.
type ivAnswer struct {
	from, to float64
	ids      []FacilityID
}

// ordered reports whether the kind's answer is a ranking (compared in
// order) rather than a set (compared sorted).
func ordered(kind string) bool {
	switch kind {
	case kindTopK, kindNearest, kindMultiTopK, kindTopKPeriod:
		return true
	}
	return false
}

// digest folds an answer into the 64 bits expectations are stored as.
func digest(kind string, ans []ivAnswer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, iv := range ans {
		put(math.Float64bits(iv.from))
		put(math.Float64bits(iv.to))
		ids := iv.ids
		if !ordered(kind) {
			ids = append([]FacilityID(nil), ids...)
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		}
		put(uint64(len(ids)))
		for _, id := range ids {
			put(uint64(id))
		}
	}
	return h.Sum64()
}

// digestOf is the digest of a static query's result.
func digestOf(kind string, res *Result) uint64 {
	return digest(kind, []ivAnswer{{ids: idsOf(res.Facilities)}})
}

func idsOf(fs []Facility) []FacilityID {
	out := make([]FacilityID, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	return out
}

func engineOption(engine string) Option {
	if engine == "lsa" {
		return withEngine(engineLSA)
	}
	return withEngine(engineCEA)
}

func locOf(q *Request) Location { return Location{Edge: EdgeID(q.Edge), T: q.T} }

func locsOf(q *Request) []Location {
	out := make([]Location, len(q.Edges))
	for i, e := range q.Edges {
		out[i] = Location{Edge: EdgeID(e), T: q.Ts[i]}
	}
	return out
}

// runStatic answers a static-kind request by a direct facade call on net —
// how the in-process workloads execute, and how expectations are computed.
func runStatic(ctx context.Context, net *Network, q *Request) (*Result, error) {
	eng := engineOption(q.Engine)
	switch q.Kind {
	case kindSkyline:
		return net.Skyline(ctx, locOf(q), eng)
	case kindTopK:
		return net.TopK(ctx, locOf(q), weightedSum(q.Weights...), q.K, eng)
	case kindWithin:
		return net.Within(ctx, locOf(q), costsOf(q.Budget...), eng)
	case kindNearest:
		fs, err := net.Nearest(ctx, locOf(q), q.Cost, q.K)
		return &Result{Facilities: fs}, err
	case kindMultiSkyline:
		return net.MultiSourceSkyline(ctx, q.Cost, locsOf(q), eng)
	case kindMultiTopK:
		return net.MultiSourceTopK(ctx, q.Cost, locsOf(q), weightedSum(q.Weights...), q.K, eng)
	}
	return nil, fmt.Errorf("kind %q is not a static query", q.Kind)
}

// expect computes the expected answer of q by a direct in-process facade
// call: static kinds on the in-memory network, period kinds on tn.
func (in *instance) expect(ctx context.Context, tn *TimeNetwork, q *Request) ([]ivAnswer, error) {
	if !q.Period() {
		res, err := runStatic(ctx, in.mem, q)
		if err != nil {
			return nil, err
		}
		return []ivAnswer{{ids: idsOf(res.Facilities)}}, nil
	}
	if tn == nil {
		return nil, fmt.Errorf("period query without a time-dependent network")
	}
	opt := queryOptions(engineOption(q.Engine))
	var ivs []IntervalResult
	var err error
	if q.Kind == kindTopKPeriod {
		ivs, err = tn.TopKOverPeriod(ctx, locOf(q), weightedSum(q.Weights...), q.K, q.From, q.To, opt)
	} else {
		ivs, err = tn.SkylineOverPeriod(ctx, locOf(q), q.From, q.To, opt)
	}
	if err != nil {
		return nil, err
	}
	out := make([]ivAnswer, len(ivs))
	for i, iv := range ivs {
		out[i] = ivAnswer{from: iv.From, to: iv.To, ids: idsOf(iv.Result.Facilities)}
	}
	return out, nil
}

// brute answers skyline and top-k requests by the paper's strawman (d
// complete expansions, then a conventional skyline or sort) — an oracle
// that shares no search logic with LSA or CEA. ok is false for other kinds.
func (in *instance) brute(ctx context.Context, q *Request) (ans []ivAnswer, ok bool, err error) {
	var res *Result
	switch q.Kind {
	case kindSkyline:
		res, err = in.mem.BaselineSkyline(ctx, locOf(q))
	case kindTopK:
		res, err = in.mem.BaselineTopK(ctx, locOf(q), weightedSum(q.Weights...), q.K)
	default:
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	return []ivAnswer{{ids: idsOf(res.Facilities)}}, true, nil
}

// expectAll fills in want for every request: the facade's answer, and for
// the first bruteChecks skyline/top-k requests the brute-force answer, which
// must agree with it (a disagreement is an error of the run, not a wrong
// response).
func (in *instance) expectAll(ctx context.Context, tn *TimeNetwork, reqs []*prepared, bruteChecks int) error {
	for _, p := range reqs {
		ans, err := in.expect(ctx, tn, p.q)
		if err != nil {
			return fmt.Errorf("expected answer of %s: %w", p.q.URI(), err)
		}
		p.want = digest(p.q.Kind, ans)
		if bruteChecks > 0 {
			b, ok, err := in.brute(ctx, p.q)
			if err != nil {
				return fmt.Errorf("brute-force answer of %s: %w", p.q.URI(), err)
			}
			if ok {
				bruteChecks--
				// The strawman reports a skyline in no particular order and
				// breaks top-k ties its own way; compare as sets.
				if digest(kindSkyline, b) != digest(kindSkyline, ans) {
					return fmt.Errorf("facade and brute-force baseline disagree on %s", p.q.URI())
				}
			}
		}
	}
	return nil
}

// codec selects how a request travels.
type codec int

const (
	codecGET    codec = iota // GET endpoint, JSON response
	codecJSON                // POST /v1/query, JSON both ways
	codecMCNB                // POST /v1/query, binary frames both ways
	codecStream              // GET endpoint with stream=1, NDJSON response (never cached)
)

// prepared is one request ready to send or execute, with its expectation.
type prepared struct {
	q      *Request
	method string
	path   string
	ctype  string
	body   []byte
	stream bool
	want   uint64
}

func prepare(q *Request, c codec) (*prepared, error) {
	p := &prepared{q: q, method: http.MethodPost, path: pathV1Query}
	var err error
	switch c {
	case codecGET:
		p.method, p.path = http.MethodGet, q.URI()
	case codecStream:
		p.method, p.path, p.stream = http.MethodGet, q.URI()+"&stream=1", true
	case codecJSON:
		p.ctype = ctypeJSON
		p.body, err = json.Marshal(q)
	case codecMCNB:
		p.ctype = ctypeBinary
		p.body, err = encodeRequest(q)
	}
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", q.URI(), err)
	}
	return p, nil
}

// decoded is a response in codec-independent form.
type decoded struct {
	result *WireResult
	period *WirePeriod
}

func (d decoded) answer() []ivAnswer {
	if d.period != nil {
		out := make([]ivAnswer, len(d.period.Intervals))
		for i, iv := range d.period.Intervals {
			out[i] = ivAnswer{from: iv.From, to: iv.To, ids: wireIDs(iv.Facilities)}
		}
		return out
	}
	return []ivAnswer{{ids: wireIDs(d.result.Facilities)}}
}

func wireIDs(fs []WireFacility) []FacilityID {
	out := make([]FacilityID, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	return out
}

// decode parses a 200 response body of p.
func (p *prepared) decode(body []byte) (decoded, error) {
	if p.ctype == ctypeBinary {
		payload, err := readFrame(bytes.NewReader(body), maxResponseFrame)
		if err != nil {
			return decoded{}, fmt.Errorf("read frame: %w", err)
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			return decoded{}, err
		}
		if resp.Result == nil && resp.Period == nil {
			return decoded{}, fmt.Errorf("error frame %d: %s", resp.Status, resp.Message)
		}
		return decoded{result: resp.Result, period: resp.Period}, nil
	}
	if p.stream {
		return decodeStream(body)
	}
	if p.q.Period() {
		var pr WirePeriod
		if err := json.Unmarshal(body, &pr); err != nil {
			return decoded{}, err
		}
		return decoded{period: &pr}, nil
	}
	var res WireResult
	if err := json.Unmarshal(body, &res); err != nil {
		return decoded{}, err
	}
	return decoded{result: &res}, nil
}

// decodeStream parses an NDJSON streaming response: one facility per line,
// then a done-line; an error line or a missing done-line is a failure.
func decodeStream(body []byte) (decoded, error) {
	res := &WireResult{}
	done := false
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var row struct {
			WireFacility
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			return decoded{}, err
		}
		switch {
		case row.Error != "":
			return decoded{}, fmt.Errorf("stream error: %s", row.Error)
		case row.Done:
			done = true
		default:
			res.Facilities = append(res.Facilities, row.WireFacility)
		}
	}
	if !done {
		return decoded{}, fmt.Errorf("stream ended without a done-line")
	}
	res.Count = len(res.Facilities)
	return decoded{result: res}, nil
}

// check reports whether a 200 response body carries the expected answer.
func (p *prepared) check(body []byte) (decoded, bool) {
	d, err := p.decode(body)
	if err != nil {
		return d, false
	}
	return d, digest(p.q.Kind, d.answer()) == p.want
}
