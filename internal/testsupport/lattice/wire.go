package lattice

// The wire axis: rows that ask an instance's queries over HTTP, through the
// real serve handler and cluster gateway on an in-memory network (memnet).
// Each row asks, under LSA and CEA, every kind the wire can express, in each
// codec that carries it, and holds every answer twice: to the oracle, as
// the codec's documented narrowing allows, and bit for bit — after that
// narrowing — to the in-process row the server runs, with the work counters
// the wire carries.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mcn"
	"mcn/internal/cluster"
	"mcn/internal/core"
	"mcn/internal/serve"
	"mcn/internal/storage"
	"mcn/internal/testsupport/memnet"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
	"mcn/internal/wire"
)

// target is what a wire row sends its requests to.
type target int

const (
	served       target = 1 + iota // serve over mcn.FromGraph, with a TimeNet
	servedDisk                     // serve over a 1 % disk database, without one
	servedCached                   // served with the result cache on; every request asked twice
	gateway                        // a cluster gateway over three served replicas
	gatewayDown                    // the same, one replica down
	gatewayShed                    // the same, one replica answering 503 with Retry-After: 0, and one down
)

var targetNames = [...]string{served: "served", servedDisk: "served disk 1%", servedCached: "served cached",
	gateway: "gateway", gatewayDown: "gateway, one replica down", gatewayShed: "gateway, one replica shedding"}

// wireKinds are the kinds a wire request can carry; SkylineSeq and Drain go
// as NDJSON streams, every other kind in the buffered codecs.
var wireKinds = []Kind{Skyline, SkylineSeq, TopK, Drain, Nearest, Within, MultiSkyline, MultiTopK, SkylinePeriod, TopKPeriod}

func streamed(k Kind) bool { return k == SkylineSeq || k == Drain }

// codec is one way a request crosses the wire, and the response mode and
// media type its answer comes back in: the request's own codec unless
// Accept names the other.
type codec struct {
	name                        string
	method, contentType, accept string
	mode                        wire.Mode
	answerType                  string
}

var codecs = []codec{
	{"GET-JSON", http.MethodGet, "", "", wire.ModeJSON, wire.ContentTypeJSON},
	{"POST-JSON", http.MethodPost, wire.ContentTypeJSON, "", wire.ModeJSON, wire.ContentTypeJSON},
	{"POST-MCNB", http.MethodPost, wire.ContentTypeBinary, "", wire.ModeBinary, wire.ContentTypeBinary},
	{"POST-JSON answered in MCNB", http.MethodPost, wire.ContentTypeJSON, wire.ContentTypeBinary, wire.ModeBinary, wire.ContentTypeBinary},
	{"POST-MCNB answered in JSON", http.MethodPost, wire.ContentTypeBinary, wire.ContentTypeJSON, wire.ModeJSON, wire.ContentTypeJSON},
	{"GET-NDJSON", http.MethodGet, "", "", wire.ModeNDJSON, "application/x-ndjson"},
}

// request renders q as c carries it: the request target and body.
func (c codec) request(q *wire.Request) (string, []byte) {
	var body []byte
	var err error
	switch {
	case c.mode == wire.ModeNDJSON:
		return q.URI() + "&stream=1", nil
	case c.method == http.MethodGet:
		return q.URI(), nil
	case c.contentType == wire.ContentTypeBinary:
		body, err = wire.EncodeRequest(q)
	default:
		body, err = json.Marshal(q)
	}
	if err != nil {
		panic(err)
	}
	return "/v1/query", body
}

// The codecs' narrowing of an answer's costs and scores: JSON renders a
// non-finite value as null, which decodes to NaN; MCNB narrows to float32,
// and two values within inProcess.rel of each other may then round to
// adjacent float32s, at most 2⁻²³ apart relatively.
var (
	jsonTolerance = tolerance{func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.NaN()
		}
		return v
	}, inProcess.rel}
	mcnbTolerance = tolerance{func(v float64) float64 { return float64(float32(v)) }, 1.2e-7}
)

func (c codec) tolerance() tolerance {
	if c.mode == wire.ModeBinary {
		return mcnbTolerance
	}
	return jsonTolerance
}

// reply is a decoded wire answer: a result, or a period result's intervals.
type reply struct {
	query string
	answer
	ivs []interval
}

// jsonFacility is a facility as JSON carries it; a null score decodes to
// NaN, an absent one to zero. (wire.Facility decodes the null to zero too,
// the best score there is; see its doc.)
type jsonFacility struct {
	wire.Facility
	Score jsonScore `json:"score"`
}

type jsonScore float64

func (s *jsonScore) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*s = jsonScore(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(s))
}

// jsonAnswer is a result envelope or one interval of a period result.
type jsonAnswer struct {
	From, To   float64
	Count      int
	Facilities []jsonFacility
	Stats      core.Stats
}

func (a jsonAnswer) answer() (answer, error) {
	out := answer{facs: make([]core.Facility, len(a.Facilities)), stats: a.Stats}
	for i, f := range a.Facilities {
		out.facs[i] = core.Facility{ID: f.ID, Costs: vec.Costs(f.Costs), Score: float64(f.Score)}
	}
	if a.Count != len(a.Facilities) {
		return out, fmt.Errorf("count %d for %d facilities", a.Count, len(a.Facilities))
	}
	return out, nil
}

// decode reads a 200 answer in c's response mode.
func (c codec) decode(body []byte, period bool) (r reply, err error) {
	switch c.mode {
	case wire.ModeBinary:
		var payload []byte
		var resp *wire.Response
		if payload, err = wire.ReadFrame(bytes.NewReader(body), wire.MaxResponseFrame); err == nil {
			resp, err = wire.DecodeResponse(payload)
		}
		switch {
		case err != nil || len(body) != 4+len(payload):
			return r, fmt.Errorf("%d-byte frame in %d bytes: %v", len(payload), len(body), err)
		case period && resp.Period != nil:
			r.query = resp.Period.Query
			for _, iv := range resp.Period.Intervals {
				r.ivs = append(r.ivs, interval{iv.From, iv.To, answer{wire.ToFacilities(iv.Facilities), iv.Stats}})
			}
		case !period && resp.Result != nil:
			r.query, r.answer = resp.Result.Query, answer{wire.ToFacilities(resp.Result.Facilities), resp.Result.Stats}
		default:
			return r, fmt.Errorf("frame %+v carries no answer", resp)
		}
		return r, nil
	case wire.ModeNDJSON:
		// One facility a line, then the done-line with their count; a stream
		// carries neither a label nor work counters.
		var all jsonAnswer
		for dec := json.NewDecoder(bytes.NewReader(body)); ; {
			var line struct {
				jsonFacility
				Done  bool
				Count int
			}
			if err := dec.Decode(&line); err != nil {
				return r, fmt.Errorf("%v before the done-line", err)
			}
			if line.Done {
				var more json.RawMessage
				if err := dec.Decode(&more); err != io.EOF {
					return r, fmt.Errorf("line after the done-line: %s (%v)", more, err)
				}
				all.Count = line.Count
				r.answer, err = all.answer()
				return r, err
			}
			all.Facilities = append(all.Facilities, line.jsonFacility)
		}
	}
	var env struct {
		Query string
		jsonAnswer
		Intervals []jsonAnswer
	}
	if err = json.Unmarshal(body, &env); err != nil {
		return r, err
	}
	r.query = env.Query
	if !period {
		r.answer, err = env.answer()
		return r, err
	}
	if env.Count != len(env.Intervals) {
		return r, fmt.Errorf("count %d for %d intervals", env.Count, len(env.Intervals))
	}
	for _, iv := range env.Intervals {
		a, err := iv.answer()
		if err != nil {
			return r, err
		}
		r.ivs = append(r.ivs, interval{iv.From, iv.To, a})
	}
	return r, nil
}

var latencyField = regexp.MustCompile(`"latency_ms":[^,}]*`)

// stable is a response body with its one varying field, the latency,
// zeroed: the JSON field, or an MCNB answer frame's last four bytes.
func stable(mode wire.Mode, body []byte) string {
	if mode == wire.ModeBinary {
		b := bytes.Clone(body)
		clear(b[len(b)-4:])
		return string(b)
	}
	return string(latencyField.ReplaceAll(body, []byte(`"latency_ms":0`)))
}

// wireRequest puts kind k of in on the wire under engine eng; ok is false
// when the wire cannot carry the instance's query: an aggregate other than
// a weighted sum, or a budget with an infinite component.
func wireRequest(k Kind, in *testnet.Instance, eng core.Engine) (q *wire.Request, ok bool) {
	q = &wire.Request{Edge: int(in.Loc.Edge), T: in.Loc.T}
	if eng == core.LSA {
		q.Engine = "lsa"
	}
	ok = true
	weights := func(agg vec.Aggregate) {
		w, isSum := agg.(vec.Weighted)
		q.Weights, ok = w.Coef, isSum
	}
	switch k {
	case Skyline, SkylineSeq:
		q.Kind = wire.KindSkyline
	case TopK, Drain:
		q.Kind, q.K = wire.KindTopK, in.K
		if k == Drain {
			q.K = in.G.NumFacilities() + 1
		}
		weights(in.Agg)
	case Nearest:
		q.Kind, q.K, q.Cost = wire.KindNearest, in.K, in.CostIdx
	case Within:
		q.Kind, q.Budget = wire.KindWithin, []float64(in.Budget)
		for _, b := range in.Budget {
			ok = ok && !math.IsInf(b, 0)
		}
	case MultiSkyline, MultiTopK:
		q.Kind, q.Edge, q.T, q.Cost = wire.KindMultiSourceSkyline, 0, 0, in.CostIdx
		for _, l := range in.Locs {
			q.Edges, q.Ts = append(q.Edges, int(l.Edge)), append(q.Ts, l.T)
		}
		if k == MultiTopK {
			q.Kind, q.K = wire.KindMultiSourceTopK, in.K
			weights(in.MultiAgg)
		}
	case SkylinePeriod:
		q.Kind, q.From, q.To = wire.KindSkylinePeriod, PeriodFrom, PeriodTo
	case TopKPeriod:
		q.Kind, q.K, q.From, q.To = wire.KindTopKPeriod, in.K, PeriodFrom, PeriodTo
		weights(in.Agg)
	}
	return q, ok
}

// wireNet is one instance served on an in-memory network: the base URL of
// every wire row, and what the checks read besides the answers.
type wireNet struct {
	t      testing.TB
	n      *memnet.Network
	client *http.Client
	base   [gatewayShed + 1]string
	tv     *timeNet // the served networks' time-dependent view
	cache  *mcn.ResultCache
	// A gateway row's membership and its router's twin; the down row's down
	// replica and the shedding row's shedding one (each the first candidate
	// of the request in flight) and dead one; the failovers each fault row's
	// /stats must count; the all-up gateway's replica requests and last one.
	members              [gatewayShed + 1]*cluster.Membership
	routers              [gatewayShed + 1]*cluster.Router
	down, shedding, dead string
	failovers            [gatewayShed + 1]float64
	legs, lastLeg        atomic.Int64
}

func newWireNet(t testing.TB, in *testnet.Instance, seed int64, shape Profiles) *wireNet {
	t.Helper()
	w := &wireNet{t: t, n: memnet.New(), tv: newTimeNet(t, in, seed, shape)}
	w.client = w.n.Client()
	cfg := serve.Config{Workers: 2, Timeout: time.Minute, TimeNet: w.tv.tn}
	mem := mcn.FromGraph(in.G)
	w.base[served] = w.n.Serve(serve.New(mem, cfg).Handler())
	dev, err := storage.BuildMem(in.G)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := mcn.OpenDeviceOptions(dev, 0.01, mcn.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.base[servedDisk] = w.n.Serve(serve.New(disk, serve.Config{Workers: 2, Timeout: time.Minute}).Handler())
	cached := mcn.FromGraph(in.G)
	w.cache = cached.EnableResultCache(mcn.CacheOptions{})
	w.base[servedCached] = w.n.Serve(serve.New(cached, cfg).Handler())

	for g := gateway; g <= gatewayShed; g++ {
		urls := make([]string, 3)
		for i := range urls {
			h := serve.New(mem, cfg).Handler()
			urls[i] = w.n.Serve(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				switch {
				case g == gateway:
					w.legs.Add(1)
					w.lastLeg.Store(int64(i))
				case g == gatewayShed && "http://"+r.Host == w.shedding:
					// Retry-After 0: never cooled out of rotation, so every
					// request it is first for takes the 503 failover path.
					rw.Header().Set("Retry-After", "0")
					rw.WriteHeader(http.StatusServiceUnavailable)
					return
				}
				h.ServeHTTP(rw, r)
			}))
		}
		m, err := cluster.NewMembership(urls, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// The membership's client is the one transport the gateway proxies
		// and probes through; cluster keeps it unexported, so route it onto
		// the network here.
		client := reflect.ValueOf(m).Elem().FieldByName("client")
		if !client.IsValid() || client.Type() != reflect.TypeFor[*http.Client]() {
			t.Fatal("cluster.Membership has no field client *http.Client to route onto the in-memory network")
		}
		(*http.Client)(client.UnsafePointer()).Transport = w.n
		w.members[g], w.routers[g] = m, cluster.NewRouter(m, cluster.PolicyHash)
		w.base[g] = w.n.Serve(cluster.NewGateway(m, cluster.PolicyHash, time.Minute).Handler())
	}
	return w
}

// fault makes q's first candidate on fault row g its faulty replica, so
// that q fails over: down, once a probe round has brought back the replica
// the row's last request found down; or shedding, behind a second candidate
// that the row's first request finds dead and the gateway then keeps out of
// rotation, no probe running.
func (w *wireNet) fault(g target, q *wire.Request) {
	m := w.members[g]
	if g == gatewayDown && w.down != "" {
		w.n.SetDown(w.down, false)
		m.ProbeAll(context.Background())
	}
	cands := w.routers[g].Candidates(cluster.CanonicalKey(q), m.Available())
	if len(cands) < 2 {
		w.t.Fatalf("%s: %d replicas available, want two or more", targetNames[g], len(cands))
	}
	switch {
	case g == gatewayDown:
		w.down = cands[0].URL()
		w.n.SetDown(w.down, true)
	case w.dead == "":
		w.dead = cands[1].URL()
		w.n.SetDown(w.dead, true)
		fallthrough
	default:
		w.shedding = cands[0].URL()
	}
}

// ask sends q in codec c to row g and returns the body of its 200 answer.
func (w *wireNet) ask(g target, c codec, q *wire.Request) []byte {
	w.t.Helper()
	if g >= gatewayDown {
		w.fault(g, q)
	}
	uri, body := c.request(q)
	status, header, out := w.do(c.method, w.base[g]+uri, c.contentType, c.accept, body)
	if status != http.StatusOK || header.Get("Content-Type") != c.answerType {
		w.t.Fatalf("%s %s %s: %d %s %q", targetNames[g], c.name, q.URI(), status, header.Get("Content-Type"), out)
	}
	if g >= gatewayDown {
		w.failovers[g]++
		if n := w.stats(g, "gateway", "failovers"); n != w.failovers[g] {
			w.t.Fatalf("%s %s %s: gateway.failovers %g, want %g: the request did not fail over once", targetNames[g], c.name, q.URI(), n, w.failovers[g])
		}
	}
	return out
}

func (w *wireNet) do(method, url, contentType, accept string, body []byte) (int, http.Header, []byte) {
	w.t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		w.t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", accept)
	resp, err := w.client.Do(req)
	if err != nil {
		w.t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		w.t.Fatalf("%s %s: read: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, out
}

// stats reads row g's /stats and returns the counter at path.
func (w *wireNet) stats(g target, path ...string) float64 {
	w.t.Helper()
	status, _, body := w.do(http.MethodGet, w.base[g]+"/stats", "", "", nil)
	var v any
	if err := json.Unmarshal(body, &v); status != http.StatusOK || err != nil {
		w.t.Fatalf("%s /stats: %d %s (%v)", targetNames[g], status, body, err)
	}
	for _, key := range path {
		v = v.(map[string]any)[key]
	}
	return v.(float64)
}

// checkWire runs the wire rows as the file comment says. Besides, every
// form of a request decodes to it; a row answers it in one response mode
// with the same bytes, the latency apart, whatever form asked; a gateway
// row answers with the served row's bytes, the all-up one from one replica
// for every form, and a fault row after a failover; the cached row answers
// a cacheable request's repeat from the cache with the same bytes, and a
// top-k with doubled weights as its own request (checkDoubledWeights).
func checkWire(t testing.TB, in *testnet.Instance, sel Select, o *oracle, srcs []source, seed int64, rep *Report) {
	t.Helper()
	w := newWireNet(t, in, seed, sel.Profiles)
	defer w.n.Close()
	rep.Asked = map[string]int{}
	inProc := map[[3]int]answer{} // by kind, engine, source
	for _, k := range wireKinds {
		if !sel.Kinds.has(k) {
			continue
		}
		for _, eng := range []core.Engine{core.LSA, core.CEA} {
			q, ok := wireRequest(k, in, eng)
			if !ok {
				rep.Asked["skipped "+k.String()]++
				continue
			}
			var sweep []interval // the in-process sweep the served rows run
			if _, period := instantOf[k]; period {
				var err error
				if sweep, err = w.tv.sweep(k, wholeSpan, core.Options{Engine: eng}); err == nil {
					err = w.tv.checkPeriod(t, k, wholeSpan, sweep, false, inProcess)
				}
				if err != nil {
					t.Fatalf("%v: in process: %v: %v", in, k, err)
				}
			}
			leg := int64(-1)               // the all-up gateway's replica for q
			doubled := false               // q with doubled weights is cached
			byMode := map[[2]int]string{}  // each row's first answer in each mode
			refs := map[wire.Mode]string{} // the served row's
			for _, c := range codecs {
				if streamed(k) != (c.mode == wire.ModeNDJSON) {
					continue
				}
				checkParse(t, c, q)
				for i, r := range rows {
					if r.wire == 0 || r.wire != served && !sel.Rows.has(i) || r.wire == servedDisk && q.Period() {
						continue
					}
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("%v: %s: %v %s %s: %s", in, r.name, k, c.name, q.URI(), fmt.Sprintf(format, args...))
					}
					s := 1 // the flat source FromGraph compiles
					if r.wire == servedDisk {
						s = 4
					}
					opt := core.Options{Engine: eng, Bounds: srcs[s].bounds}
					if k == Nearest {
						opt.Engine = core.LSA // a nearest request has no engine
					}
					key := [3]int{int(k), int(eng), s}
					if _, ok := inProc[key]; !ok && !q.Period() {
						a, err := run(k, srcs[s].src, in, opt)
						if err != nil {
							fail("in process: %v", err)
						}
						inProc[key] = a
					}
					want := inProc[key]
					legs := w.legs.Load()
					body := w.ask(r.wire, c, q)
					if r.wire == gateway {
						if w.legs.Load() != legs+1 || leg >= 0 && w.lastLeg.Load() != leg {
							fail("%d replica requests, replica %d; an earlier form went to replica %d", w.legs.Load()-legs, w.lastLeg.Load(), leg)
						}
						leg = w.lastLeg.Load()
					}
					got, err := c.decode(body, q.Period())
					if err != nil {
						fail("decode: %v", err)
					}
					if msg := checkReply(t, w.tv, k, in, q, c, got, want, sweep, o); msg != "" {
						fail("%s", msg)
					}
					if k == Within {
						rep.Served += got.stats.PrunedNodes
					}
					for _, key := range []string{"row " + r.name, "kind " + k.String(), "codec " + c.name} {
						rep.Asked[key]++
					}
					stableBody := stable(c.mode, body)
					if r.wire == served {
						refs[c.mode] = cmp.Or(refs[c.mode], stableBody)
					}
					first := [2]int{int(r.wire), int(c.mode)}
					byMode[first] = cmp.Or(byMode[first], stableBody)
					if stableBody != byMode[first] || r.wire >= gateway && stableBody != refs[c.mode] {
						fail("answered\n%s\nan earlier form, or the served row, answered\n%s", body, cmp.Or(refs[c.mode], byMode[first]))
					}
					if r.wire != servedCached {
						continue
					}
					hits := w.cache.Stats().Hits
					if again := w.ask(r.wire, c, q); stable(c.mode, again) != stableBody {
						fail("asked again, answered\n%s\nfirst\n%s", again, body)
					}
					cacheable := !streamed(k) && (k == Skyline || k == TopK || k == Nearest || k == Within)
					if n := w.cache.Stats().Hits - hits; n != int64(b2i(cacheable)) {
						fail("asked again: %d cache hits, want %d", n, b2i(cacheable))
					}
					if k == TopK {
						checkDoubledWeights(t, w, c, q, in, srcs[s], opt, o, doubled, fail)
						doubled = true
					}
				}
			}
		}
	}
	if hits := float64(w.cache.Stats().Hits); hits > 0 && w.stats(servedCached, "cache", "hits") != hits {
		t.Fatalf("%v: served cached: /stats cache.hits is not the cache's %g", in, hits)
	}
}

// checkParse requires the request c renders for q to decode to q, in c's
// response mode.
func checkParse(t testing.TB, c codec, q *wire.Request) {
	t.Helper()
	uri, body := c.request(q)
	hr := httptest.NewRequest(c.method, uri, bytes.NewReader(body))
	hr.Header.Set("Content-Type", c.contentType)
	hr.Header.Set("Accept", c.accept)
	got, mode, _, err := wire.DecodeHTTP(httptest.NewRecorder(), hr)
	if err != nil || mode != c.mode || !reflect.DeepEqual(got, q) {
		t.Fatalf("%s decoder: %s decoded to %+v in mode %d (%v), want %+v in mode %d", c.name, q.URI(), got, mode, err, q, c.mode)
	}
}

// checkReply reports how a wire answer departs from the oracle, as the
// codec narrows it, and from the in-process answer want (for a period kind,
// the in-process sweep), bit for bit once narrowed, work counters included.
func checkReply(t testing.TB, tv *timeNet, k Kind, in *testnet.Instance, q *wire.Request, c codec, got reply, want answer, sweep []interval, o *oracle) string {
	t.Helper()
	tl := c.tolerance()
	if c.mode != wire.ModeNDJSON && got.query != q.QueryName() {
		return fmt.Sprintf("labelled %q, want %q", got.query, q.QueryName())
	}
	if !q.Period() {
		if msg := o.check(k, in, got.answer, tl); msg != "" {
			return "oracle: " + msg
		}
		if msg := same(got.facs, want.facs, tl.narrow); msg != "" || c.mode != wire.ModeNDJSON && got.stats != want.stats {
			return fmt.Sprintf("differs from the in-process row: %s; stats %+v, in process %+v", msg, got.stats, want.stats)
		}
		return ""
	}
	if len(got.ivs) != len(sweep) {
		return fmt.Sprintf("%d intervals, in process %d", len(got.ivs), len(sweep))
	}
	for i, iv := range got.ivs {
		if msg := same(iv.facs, sweep[i].facs, tl.narrow); msg != "" || iv.from != sweep[i].from || iv.to != sweep[i].to || iv.stats != sweep[i].stats {
			return fmt.Sprintf("interval %d [%g, %g) stats %+v, in process [%g, %g) stats %+v: %s",
				i, iv.from, iv.to, iv.stats, sweep[i].from, sweep[i].to, sweep[i].stats, msg)
		}
	}
	if err := tv.checkPeriod(t, k, wholeSpan, got.ivs, false, tl); err != nil {
		return err.Error()
	}
	return ""
}

// checkDoubledWeights asks top-k request q again with its weights doubled:
// a request of its own, which the cache answers only once it has computed
// it (cached reports whether an earlier codec did), and then with what it
// computed. Either way the answer must be the in-process one for the
// doubled weights, bit for bit once narrowed with its work counters, and,
// with every score halved (doubling is exact in floating point), the
// oracle's.
func checkDoubledWeights(t testing.TB, w *wireNet, c codec, q *wire.Request, in *testnet.Instance, src source, opt core.Options, o *oracle, cached bool, fail func(string, ...any)) {
	t.Helper()
	scaled := *q
	scaled.Weights = nil
	for _, a := range q.Weights {
		scaled.Weights = append(scaled.Weights, 2*a)
	}
	before := w.cache.Stats()
	got, err := c.decode(w.ask(servedCached, c, &scaled), false)
	after := w.cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; err != nil || hits != int64(b2i(cached)) || misses != int64(b2i(!cached)) {
		fail("weights doubled: %d cache hits and %d misses (%v), want %d and %d", hits, misses, err, b2i(cached), b2i(!cached))
	}
	want, err := core.TopK(src.src, in.Loc, vec.NewWeighted(scaled.Weights...), in.K, opt)
	if err != nil {
		fail("weights doubled, in process: %v", err)
	}
	if msg := same(got.facs, want.Facilities, c.tolerance().narrow); msg != "" || got.stats != want.Stats {
		fail("weights doubled: differs from the in-process answer: %s; stats %+v, want %+v", msg, got.stats, want.Stats)
	}
	if msg := o.check(TopK, in, answer{facs: scaleScores(got.facs, 0.5)}, c.tolerance()); msg != "" {
		fail("weights doubled, scores halved: oracle: %s", msg)
	}
}

func scaleScores(fs []core.Facility, by float64) []core.Facility {
	out := slices.Clone(fs)
	for i := range out {
		out[i].Score *= by
	}
	return out
}
