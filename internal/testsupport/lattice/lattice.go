package lattice

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mcn/internal/core"
	"mcn/internal/dynamic"
	"mcn/internal/expand"
	"mcn/internal/flat"
	"mcn/internal/gen"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/storage"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/timedep"
	"mcn/internal/vec"
)

// Kind is one query every row answers.
type Kind int

// The query kinds. Drain pulls a TopKIterator to the end; the two baseline
// kinds are core's materialise-everything operators; the period kinds sweep
// a time-dependent network, which the time rows and the served rows have.
const (
	Skyline Kind = iota
	SkylineSeq
	TopK
	Drain
	Nearest
	Within
	MultiSkyline
	MultiTopK
	NaiveSkyline
	NaiveTopK
	SkylinePeriod
	TopKPeriod
	numKinds
)

var kindNames = [numKinds]string{"skyline", "skyline seq", "topk", "topk drain", "nearest", "within",
	"multisource skyline", "multisource topk", "baseline skyline", "baseline topk",
	"skyline over a period", "topk over a period"}

// The period the period kinds sweep: from before an instance's first
// breakpoint past its last.
const PeriodFrom, PeriodTo = -5.0, 100.0

var wholeSpan = [2]float64{PeriodFrom, PeriodTo}

// instantOf maps each period kind to the kind its intervals answer.
var instantOf = map[Kind]Kind{SkylinePeriod: Skyline, TopKPeriod: TopK}

func (k Kind) String() string { return kindNames[k] }

// Kinds is a set of query kinds; the zero set means every kind.
type Kinds uint16

// KindSet returns the set holding ks.
func KindSet(ks ...Kind) Kinds {
	var s Kinds
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

func (s Kinds) has(k Kind) bool { return s == 0 || s&(1<<k) != 0 }

// sourceNames is the source axis, the reference first. "flat/permuted"
// compiles the graph with its nodes renumbered and moved at random, so that
// its locality numbering is unrelated to the reference's; the "/wrapped"
// sources hide everything but the six expand.Source methods, the way a
// caller's own wrapper does, so queries run on state that grows on demand
// and, under CEA, behind the record memo.
var sourceNames = []string{"mem", "flat", "flat/permuted", "flat/wrapped", "disk 1%", "disk 100%", "disk/wrapped"}

// row is one execution mode of the lattice. A source row runs core's
// queries over one source with one engine, enhancement and bounds setting,
// the bounds being the source's own pruning index; a time row runs a
// time-dependent network's instant queries and sweeps with one engine and
// enhancement setting; a maintainer row queries a dynamic.Maintainer built
// over one source; an update-mix row races queries against updates
// (update.go); a wire row asks over HTTP (wire.go).
type row struct {
	name             string
	source           int // into sourceNames, for source and maintainer rows
	engine           core.Engine
	noEnh, bounds    bool
	time, maintainer bool
	update, cached   bool
	wire             target
}

// sourceRow reports whether r is a source row.
func (r row) sourceRow() bool { return !r.time && !r.maintainer && !r.update && r.wire == 0 }

// reference reports whether r is the row every source row with its
// enhancement and bounds settings is compared with: MemorySource under LSA.
func (r row) reference() bool {
	return r.sourceRow() && r.source == 0 && r.engine == core.LSA
}

// rows is the table of modes; row i is bit i of a Rows set.
var rows = func() []row {
	var out []row
	engines, bools := []core.Engine{core.LSA, core.CEA}, []bool{false, true}
	for s, name := range sourceNames {
		for _, eng := range engines {
			for _, noEnh := range bools {
				for _, bounds := range bools {
					out = append(out, row{name: fmt.Sprintf("%s/%v enh=%v bounds=%v", name, eng, !noEnh, bounds),
						source: s, engine: eng, noEnh: noEnh, bounds: bounds})
				}
			}
		}
	}
	for _, eng := range engines {
		for _, noEnh := range bools {
			out = append(out, row{name: fmt.Sprintf("time/%v enh=%v", eng, !noEnh), engine: eng, noEnh: noEnh, time: true})
		}
	}
	for _, s := range []int{0, 1, 4} {
		out = append(out, row{name: "maintainer over " + sourceNames[s], source: s, maintainer: true})
	}
	out = append(out, row{name: "update mix", update: true}, row{name: "update mix, cached", update: true, cached: true})
	for w := served; w <= gatewayShed; w++ {
		out = append(out, row{name: "wire/" + targetNames[w], wire: w})
	}
	return out
}()

// Rows is a set of rows, bit i%64 of word i/64 for row i; the zero set means
// every in-process row but the update-mix ones, those and the wire rows
// being the costly ones.
type Rows [2]uint64

func (r Rows) has(i int) bool { return r.orInProcess()[i/64]&(1<<(i%64)) != 0 }

func (r Rows) orInProcess() Rows {
	if r == (Rows{}) {
		return InProcessRows.Without(UpdateRows)
	}
	return r
}

// Without returns the rows of r that are not in o.
func (r Rows) Without(o Rows) Rows { return Rows{r[0] &^ o[0], r[1] &^ o[1]} }

func rowsWhere(keep func(row) bool) Rows {
	var out Rows
	for i, r := range rows {
		if keep(r) {
			out[i/64] |= 1 << (i % 64)
		}
	}
	return out
}

// The row sets a caller selects by. SourceRows, BoundsRows, CEARows and
// NoEnhancementRows hold source rows only; ServedRows serve one network
// each.
var (
	EverySource       = rowsWhere(row.sourceRow)
	BoundsRows        = rowsWhere(func(r row) bool { return r.bounds })
	CEARows           = rowsWhere(func(r row) bool { return r.sourceRow() && r.engine == core.CEA })
	NoEnhancementRows = rowsWhere(func(r row) bool { return r.sourceRow() && r.noEnh })
	TimeRows          = rowsWhere(func(r row) bool { return r.time })
	MaintainerRows    = rowsWhere(func(r row) bool { return r.maintainer })
	UpdateRows        = rowsWhere(func(r row) bool { return r.update })
	UpdateCachedRows  = rowsWhere(func(r row) bool { return r.cached })
	AllRows           = rowsWhere(func(row) bool { return true })
	InProcessRows     = rowsWhere(func(r row) bool { return r.wire == 0 })
	WireRows          = rowsWhere(func(r row) bool { return r.wire != 0 })
	ServedRows        = rowsWhere(func(r row) bool { return r.wire != 0 && r.wire < gateway })
)

// SourceRows returns the source rows of the named sources, with every
// engine, enhancement and bounds setting.
func SourceRows(names ...string) Rows {
	return rowsWhere(func(r row) bool { return r.sourceRow() && slices.Contains(names, sourceNames[r.source]) })
}

// WireRowsOf returns the wire rows of the named targets ("served", "served
// disk 1%", "served cached", "gateway", …).
func WireRowsOf(names ...string) Rows {
	return rowsWhere(func(r row) bool { return r.wire != 0 && slices.Contains(names, targetNames[r.wire]) })
}

// Select picks the part of the lattice a check runs: rows × kinds, and the
// shape of the time-dependent networks' profiles. The reference rows run
// whenever a source row is selected, since every source row is compared
// with one.
type Select struct {
	Rows     Rows
	Kinds    Kinds
	Profiles Profiles
}

// Profiles is a shape of the time-dependent profiles put on an instance,
// every multiplier from {0.5, 1, 2, 3} so that ties survive: two or three
// edges, the query edge half the time, with breakpoints of their own; every
// query edge and two facility-carrying edges, whose segments repeat the
// last one's multipliers, so that a sweep may skip intervals; or the query
// edges and a dozen others on one breakpoint set, so that none may skip.
type Profiles int

const (
	RandomProfiles Profiles = iota
	RepeatingProfiles
	SharedAxisProfiles
)

// any reports whether the selection holds a row of set.
func (s Select) any(set Rows) bool {
	sel := s.Rows.orInProcess()
	return sel[0]&set[0] != 0 || sel[1]&set[1] != 0
}

// Generated is instance seed of the hard-case generator, its shape
// cycling with the seed.
func Generated(seed int64) *testnet.Instance {
	in := testnet.Generate(seed, testnet.ShapeOf(seed))
	in.Name = fmt.Sprintf("generated seed %d", seed)
	return in
}

// Continuous is instance seed of the generator's continuous shape: costs
// and fractions whose sums round differently in another order, so that a
// mode that adds in another order than the reference shows.
func Continuous(seed int64) *testnet.Instance {
	shape := testnet.ShapeOf(seed)
	shape.Continuous = true
	in := testnet.Generate(seed, shape)
	in.Name = fmt.Sprintf("continuous seed %d", seed)
	return in
}

// Beyond is the first seed past those TestLattice checks. Sweep starts
// there, so that the slices other packages' tests run add instances to the
// lattice's rather than repeat them.
const Beyond = 1000

// Sweep checks against the selection the first n instances build makes
// from seed Beyond on that keep accepts (nil accepts every instance), and
// returns the sum of their reports.
func Sweep(t testing.TB, n int, build func(seed int64) *testnet.Instance, keep func(*testnet.Instance) bool, sel Select) Report {
	t.Helper()
	var rep Report
	for seed := int64(Beyond); n > 0; seed++ {
		if in := build(seed); keep == nil || keep(in) {
			rep.add(Check(t, in, sel))
			n--
		}
	}
	return rep
}

// Large is the lattice's one large shape: a 250-node road network with 50
// clustered facilities and continuous anti-correlated costs, d = 3, its
// query parameters those the equivalence suites it replaces used.
func Large(directed bool, seed int64) *testnet.Instance {
	inst, err := gen.MakeInstance(gen.InstanceConfig{
		Nodes: 250, Facilities: 50, Clusters: 3, D: 3, Queries: 4, Directed: directed, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	g, loc := inst.Graph, inst.Queries[0]
	// A budget wide enough to catch a handful of facilities.
	radius := 1.0
	if near := testnet.Nearest(g, loc, 0, 6); len(near) > 0 {
		radius = near[len(near)-1].Score * 1.5
	}
	return &testnet.Instance{
		Name:     fmt.Sprintf("large directed=%v seed=%d", directed, seed),
		G:        g,
		Loc:      loc,
		Locs:     []graph.Location{inst.Queries[1], inst.Queries[3], loc},
		CostIdx:  int(seed) % 3,
		K:        4,
		Agg:      vec.NewWeighted(1, 0.5, 0.25),
		MultiAgg: vec.NewMax(1, 1, 2),
		Budget:   vec.Of(radius, radius, radius),
	}
}

// Named returns the hand-built instances: cases a mode once answered
// wrongly, and the fixed networks of the suites the lattice replaced.
func Named() []*testnet.Instance {
	// Two components, a location in each: every facility is unreachable
	// from one of them. Facility 1 = (2, +Inf) is dominated by facility
	// 0 = (1, +Inf), whose second cost is closed to +Inf only when the
	// search ends; a multi-source skyline must not report it.
	b := graph.NewBuilder(1, false)
	testnet.AddNodes(b, 4)
	a, c := b.AddEdge(0, 1, vec.Of(4)), b.AddEdge(2, 3, vec.Of(4))
	b.AddFacility(a, 0.25)
	b.AddFacility(a, 0.5)
	b.AddFacility(c, 0.5)
	split := &testnet.Instance{
		Name: "multi-source across components", G: testnet.MustBuild(b),
		Loc: graph.Location{Edge: a}, Locs: []graph.Location{{Edge: a}, {Edge: c}},
		K: 3, Agg: vec.NewWeighted(1), MultiAgg: vec.NewWeighted(1, 1), Budget: vec.Of(2),
	}

	// A component the query location cannot reach, without facilities:
	// the maintainer script's first insert goes there, and no query may
	// report the facility.
	b = graph.NewBuilder(2, false)
	testnet.AddNodes(b, 5)
	q := b.AddEdge(0, 1, vec.Of(1, 2))
	b.AddFacility(b.AddEdge(1, 2, vec.Of(2, 1)), 0.5)
	b.AddEdge(3, 4, vec.Of(1, 1))
	island := &testnet.Instance{
		Name: "insert into an unreachable component", G: testnet.MustBuild(b),
		Loc: graph.Location{Edge: q}, Locs: []graph.Location{{Edge: q}},
		K: 3, Agg: vec.NewWeighted(1, 1), MultiAgg: vec.NewWeighted(1), Budget: vec.Of(3, 3),
	}

	out := []*testnet.Instance{split, island, DirectedFork()}
	for _, directed := range []bool{false, true} {
		// A diamond of equal-cost parallel paths plus a tail; two
		// facilities at one fraction of one edge, one at each end of
		// another, equal-cost facilities on distinct edges.
		b := graph.NewBuilder(2, directed)
		for i := 0; i < 6; i++ {
			b.AddNode(float64(i), 0)
		}
		e01 := b.AddEdge(0, 1, vec.Of(1, 2))
		b.AddEdge(0, 2, vec.Of(1, 2))
		b.AddEdge(1, 3, vec.Of(1, 1))
		b.AddEdge(2, 3, vec.Of(1, 1))
		e34 := b.AddEdge(3, 4, vec.Of(2, 1))
		e45 := b.AddEdge(4, 5, vec.Of(1, 1))
		b.AddFacility(e01, 0.5)
		b.AddFacility(e01, 0.5)
		b.AddFacility(e34, 0)
		b.AddFacility(e34, 1)
		b.AddFacility(e45, 0.25)
		loc := graph.Location{Edge: e01, T: 0.25}
		out = append(out, &testnet.Instance{
			Name: fmt.Sprintf("tie diamond directed=%v", directed), G: testnet.MustBuild(b),
			Loc: loc, Locs: []graph.Location{loc, {Edge: e45, T: 1}}, CostIdx: 1,
			K: 3, Agg: vec.NewWeighted(1, 1), MultiAgg: vec.NewWeighted(1, 1), Budget: vec.Of(3, 4),
		})
	}
	return out
}

// DirectedFork is a one-way path on which facility 0 is unreachable from
// the second multi-source location, so its expansion ends without popping
// it and the query must finalize: unknown costs become +Inf, and the
// remaining candidates pin in a deterministic order.
//
//	0 →(1)→ 1[facility 0 at the end] →(2)→ 2 →(1)→ 3[facility 1 at the end]
func DirectedFork() *testnet.Instance {
	b := graph.NewBuilder(1, true)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	e0 := b.AddEdge(0, 1, vec.Of(1))
	b.AddEdge(1, 2, vec.Of(2))
	e1 := b.AddEdge(2, 3, vec.Of(1))
	b.AddFacility(e0, 1)
	b.AddFacility(e1, 1)
	return &testnet.Instance{
		Name: "directed fork", G: testnet.MustBuild(b),
		Loc: graph.Location{Edge: e0}, Locs: []graph.Location{{Edge: e0}, {Edge: e1}},
		K: 5, Agg: vec.NewWeighted(1), MultiAgg: vec.NewWeighted(1, 1), Budget: vec.Of(4),
	}
}

// Legacy decodes the input encoding of core's three query fuzz targets —
// topology size, extra edges, facility count, dimensionality, query
// position and directedness — into the network and query location it has
// always meant, so that their committed corpora replay on the lattice.
// Their k, aggregate and budget arguments go through WithTopK and
// WithBudget.
func Legacy(seed int64, nodes, extra, facs, d, locBits uint8, directed bool) *testnet.Instance {
	rng := rand.New(rand.NewSource(seed))
	topo := testnet.RandomConnected(2+int(nodes)%24, int(extra)%12, rng)
	costs := gen.RandomIntegerCosts(topo, 1+int(d)%4, 3, rng)
	pls := gen.UniformFacilities(topo, 1+int(facs)%12, rng)
	g, err := gen.Assemble(topo, costs, pls, directed)
	if err != nil {
		panic(err)
	}
	loc := graph.Location{Edge: graph.EdgeID(int(locBits) % g.NumEdges()), T: float64(int(locBits)%8) / 8}
	coef, budget := make([]float64, g.D()), make(vec.Costs, g.D())
	for i := range coef {
		coef[i], budget[i] = 1, 3
	}
	other := graph.Location{Edge: graph.EdgeID((int(locBits) * 7) % g.NumEdges()), T: 0.5}
	return &testnet.Instance{
		Name:     fmt.Sprintf("legacy fuzz (%d, %d, %d, %d, %d, %d, %v)", seed, nodes, extra, facs, d, locBits, directed),
		G:        g,
		Loc:      loc,
		Locs:     []graph.Location{loc, other},
		CostIdx:  int(locBits) % g.D(),
		K:        1 + int(facs)%6,
		Agg:      vec.NewWeighted(coef...),
		MultiAgg: vec.NewWeighted(1, 2),
		Budget:   budget,
	}
}

// WithTopK sets the k and the integer-weight aggregate the legacy top-k
// fuzz target drew from its kBits and aggBits arguments.
func WithTopK(in *testnet.Instance, kBits, aggBits uint8) *testnet.Instance {
	coef := make([]float64, in.G.D())
	for i := range coef {
		coef[i] = float64(1 + (int(aggBits)>>i)%3)
	}
	in.K, in.Agg = 1+int(kBits)%6, vec.NewWeighted(coef...)
	return in
}

// WithBudget sets the integer budget the legacy within fuzz target drew
// from its budBits argument.
func WithBudget(in *testnet.Instance, budBits uint8) *testnet.Instance {
	for i := range in.Budget {
		in.Budget[i] = float64(1 + (int(budBits)+3*i)%12)
	}
	return in
}

// answer is one row's answer to one kind: the facilities in the order the
// query returned them, and its work counters.
type answer struct {
	facs  []core.Facility
	stats core.Stats
}

// sixMethods hides everything but the six expand.Source methods of what it
// wraps — Sized, ZeroCopy, EdgeCoster.
type sixMethods struct{ expand.Source }

type source struct {
	src    expand.Source
	bounds *index.Bounds // in the source's own numbering
}

// flatIndex is the pruning index of g in the numbering of s, its
// compilation.
func flatIndex(s *flat.Source, g *graph.Graph) *index.Bounds {
	b, _ := s.Index(g, nil, nil) // fails only through an interrupt
	return b
}

// openSources builds the sources of g that the selected rows run on, and
// the reference MemorySource.
func openSources(t testing.TB, g *graph.Graph, seed int64, sel Select) []source {
	t.Helper()
	idx := index.FromGraph(g)
	var fs *flat.Source
	var dev *storage.MemDevice
	want := make([]bool, len(sourceNames))
	want[0] = true
	for i, r := range rows {
		want[r.source] = want[r.source] || !r.time && sel.Rows.has(i)
	}
	// The wire rows serve the flat and the 1 % disk source.
	want[1] = want[1] || sel.any(WireRows)
	want[4] = want[4] || sel.any(ServedRows)
	out := make([]source, len(sourceNames))
	for s, name := range sourceNames {
		if !want[s] {
			continue
		}
		switch {
		case name == "mem":
			out[s] = source{testnet.NewMemorySource(g), idx}
		case name == "flat/permuted":
			pg := permuted(g, seed)
			pfs := flat.Compile(pg)
			out[s] = source{pfs, flatIndex(pfs, pg)}
		case strings.HasPrefix(name, "flat"):
			if fs == nil {
				fs = flat.Compile(g)
			}
			out[s] = source{fs, flatIndex(fs, g)}
		default:
			if dev == nil {
				var err error
				if dev, err = storage.BuildMem(g); err != nil {
					t.Fatal(err)
				}
			}
			frac := 0.01
			if name == "disk 100%" {
				frac = 1
			}
			disk, err := storage.OpenOptions(dev, frac, storage.PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			out[s] = source{disk, disk.Bounds()}
		}
		if strings.HasSuffix(name, "/wrapped") {
			out[s].src = sixMethods{out[s].src}
		}
	}
	return out
}

// permuted returns g with its nodes renumbered and placed at random; edge
// and facility ids, and so every arc row's order, stay as they are.
func permuted(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.NumNodes()) // old id → new id
	b := graph.NewBuilder(g.D(), g.Directed())
	for range perm {
		b.AddNode(rng.Float64(), rng.Float64())
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		b.AddEdge(graph.NodeID(perm[ed.U]), graph.NodeID(perm[ed.V]), ed.W)
	}
	for f := 0; f < g.NumFacilities(); f++ {
		fac := g.Facility(graph.FacilityID(f))
		b.AddFacility(fac.Edge, fac.T)
	}
	return testnet.MustBuild(b)
}

// run answers kind k over src.
func run(k Kind, src expand.Source, in *testnet.Instance, opt core.Options) (answer, error) {
	var res *core.Result
	var err error
	switch k {
	case Skyline:
		// The progressive emissions must be the final facilities, in order.
		var emitted []graph.FacilityID
		opt.OnResult = func(f core.Facility) { emitted = append(emitted, f.ID) }
		res, err = core.Skyline(src, in.Loc, opt)
		if err == nil && !slices.Equal(emitted, ids(res.Facilities)) {
			err = fmt.Errorf("emitted %v, returned %v", emitted, ids(res.Facilities))
		}
	case SkylineSeq:
		var a answer
		for f, err := range core.SkylineSeq(context.Background(), src, in.Loc, opt) {
			if err != nil {
				return answer{}, err
			}
			a.facs = append(a.facs, f)
		}
		return a, nil
	case TopK:
		res, err = core.TopK(src, in.Loc, in.Agg, in.K, opt)
	case Drain:
		it, err := core.NewTopKIterator(src, in.Loc, in.Agg, opt)
		if err != nil {
			return answer{}, err
		}
		defer it.Close()
		var a answer
		for {
			f, ok, err := it.Next()
			if err != nil {
				return answer{}, err
			}
			if !ok {
				break
			}
			a.facs = append(a.facs, f)
		}
		a.stats = it.Stats()
		return a, nil
	case Nearest:
		res, err = core.Nearest(src, in.Loc, in.CostIdx, in.K, opt)
	case Within:
		res, err = core.Within(src, in.Loc, in.Budget, opt)
	case MultiSkyline:
		res, err = core.MultiSourceSkyline(src, in.CostIdx, in.Locs, opt)
	case MultiTopK:
		res, err = core.MultiSourceTopK(src, in.CostIdx, in.Locs, in.MultiAgg, in.K, opt)
	case NaiveSkyline:
		res, err = core.NaiveSkyline(src, in.Loc, opt)
	case NaiveTopK:
		res, err = core.NaiveTopK(src, in.Loc, in.Agg, in.K, opt)
	}
	if err != nil {
		return answer{}, err
	}
	return answer{res.Facilities, res.Stats}, nil
}

// oracle holds the definitional answers of one instance, from the
// brute-force reference computations of testnet.
type oracle struct {
	costs, msCosts []vec.Costs
	sky, msSky     []graph.FacilityID
	rank, msRank   []testnet.Ranked
	near           []testnet.Ranked
	within         []graph.FacilityID
}

func newOracle(g *graph.Graph, in *testnet.Instance) *oracle {
	o := &oracle{costs: testnet.AllCosts(g, in.Loc), msCosts: testnet.MultiSourceCosts(g, in.CostIdx, in.Locs)}
	o.sky, o.msSky = testnet.SkylineOf(o.costs), testnet.SkylineOf(o.msCosts)
	o.rank, o.msRank = testnet.RankOf(o.costs, in.Agg), testnet.RankOf(o.msCosts, in.MultiAgg)
	o.near = testnet.Nearest(g, in.Loc, in.CostIdx, g.NumFacilities())
	o.within = testnet.Within(g, in.Loc, in.Budget)
	return o
}

// check reports how a's answer to kind k departs from the definition, or
// "". Costs and scores are compared as tl allows.
func (o *oracle) check(k Kind, in *testnet.Instance, a answer, tl tolerance) string {
	switch k {
	case Skyline, SkylineSeq:
		return checkSkyline(a.facs, o.costs, o.sky, tl)
	case MultiSkyline:
		return checkSkyline(a.facs, o.msCosts, o.msSky, tl)
	case TopK, NaiveTopK:
		return checkRanked(a.facs, o.rank, in.K, true, o.costs, -1, tl)
	case MultiTopK:
		return checkRanked(a.facs, o.msRank, in.K, true, o.msCosts, -1, tl)
	case Drain:
		return checkRanked(a.facs, o.rank, len(o.rank), false, o.costs, -1, tl)
	case Nearest:
		return checkRanked(a.facs, o.near, in.K, false, o.costs, in.CostIdx, tl)
	case Within:
		return checkSet(a.facs, o.within, o.costs, tl)
	case NaiveSkyline:
		return checkSet(a.facs, o.sky, o.costs, tl)
	}
	return ""
}

// tolerance is how closely a reported cost or score must equal the
// oracle's: narrow is the rendering the answer went through (nil in
// process), and rel the relative difference allowed beyond it.
type tolerance struct {
	narrow func(float64) float64
	rel    float64
}

// inProcess is the tolerance of an answer that crossed no wire: the same
// value, or within a relative 1e-9 where summation order may round
// differently (only the continuous-cost shape has such costs).
var inProcess = tolerance{rel: 1e-9}

// near reports whether got, a reported cost or score, is want as tl allows;
// a value that narrowing made NaN matches NaN.
func (tl tolerance) near(got, want float64) bool {
	if tl.narrow != nil {
		want = tl.narrow(want)
	}
	return got == want || math.IsNaN(got) && math.IsNaN(want) || math.Abs(got-want) <= tl.rel*(1+math.Abs(want))
}

// checkCosts compares a reported cost vector with the oracle's: every
// component known, except that only component only is when only ≥ 0 (a
// nearest answer), or, when partial, any unknown component is allowed (a
// skyline member reported before every expansion reached it).
func checkCosts(f core.Facility, want vec.Costs, only int, partial bool, tl tolerance) string {
	if len(f.Costs) != len(want) {
		return fmt.Sprintf("facility %d: %d costs, want %d", f.ID, len(f.Costs), len(want))
	}
	for i, c := range f.Costs {
		switch {
		case vec.IsUnknown(c) && (partial || (only >= 0 && i != only)):
		case only >= 0 && i != only:
			return fmt.Sprintf("facility %d: cost %d = %g, want it unknown", f.ID, i, c)
		case !tl.near(c, want[i]):
			return fmt.Sprintf("facility %d: costs %v, oracle %v", f.ID, f.Costs, want)
		}
	}
	return ""
}

// checkSkyline holds a progressive skyline to the documented tie rule:
// every reported facility is in the exact skyline, none twice, and every
// exact-skyline facility is reported or has a vector exactly equal to a
// reported one's.
func checkSkyline(got []core.Facility, costs []vec.Costs, sky []graph.FacilityID, tl tolerance) string {
	reported := map[graph.FacilityID]bool{}
	for _, f := range got {
		if reported[f.ID] {
			return fmt.Sprintf("facility %d reported twice", f.ID)
		}
		reported[f.ID] = true
		if !slices.Contains(sky, f.ID) {
			return fmt.Sprintf("reported facility %d %v is not in the skyline %v", f.ID, costs[f.ID], sky)
		}
		if msg := checkCosts(f, costs[f.ID], -1, true, tl); msg != "" {
			return msg
		}
	}
	for _, id := range sky {
		if !reported[id] && !slices.ContainsFunc(got, func(f core.Facility) bool { return costs[f.ID].Equal(costs[id]) }) {
			return fmt.Sprintf("skyline facility %d %v neither reported nor tied with a reported one (reported %v)",
				id, costs[id], ids(got))
		}
	}
	return ""
}

// checkRanked compares a ranking with the oracle's first k entries of
// want: scores position by position, and ids position by position when
// exact, or else only as far as a tie group may be reported in any order —
// each id once, with the oracle's score for it.
func checkRanked(got []core.Facility, want []testnet.Ranked, k int, exact bool, costs []vec.Costs, only int, tl tolerance) string {
	n := min(k, len(want))
	if len(got) != n {
		return fmt.Sprintf("%d results %v, want %d %v", len(got), ids(got), n, want[:n])
	}
	score := map[graph.FacilityID]float64{}
	for _, r := range want {
		score[r.ID] = r.Score
	}
	seen := map[graph.FacilityID]bool{}
	for i, f := range got {
		s, ok := score[f.ID]
		switch {
		case seen[f.ID]:
			return fmt.Sprintf("facility %d reported twice", f.ID)
		case !ok:
			return fmt.Sprintf("facility %d is not reachable", f.ID)
		case exact && f.ID != want[i].ID:
			return fmt.Sprintf("result %d is facility %d, want %d (got %v, want %v)", i, f.ID, want[i].ID, ids(got), want[:n])
		case !tl.near(f.Score, want[i].Score) || !tl.near(f.Score, s):
			return fmt.Sprintf("result %d (facility %d) score %g, want %g", i, f.ID, f.Score, want[i].Score)
		}
		seen[f.ID] = true
		if msg := checkCosts(f, costs[f.ID], only, false, tl); msg != "" {
			return msg
		}
	}
	return ""
}

// checkSet compares an id-ordered answer with the oracle's set.
func checkSet(got []core.Facility, want []graph.FacilityID, costs []vec.Costs, tl tolerance) string {
	if !slices.Equal(ids(got), want) {
		return fmt.Sprintf("facilities %v, want %v", ids(got), want)
	}
	for _, f := range got {
		if msg := checkCosts(f, costs[f.ID], -1, false, tl); msg != "" {
			return msg
		}
	}
	return ""
}

func ids(fs []core.Facility) []graph.FacilityID {
	out := make([]graph.FacilityID, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	return out
}

// same reports how got departs from want, each of want's costs and scores
// rendered by narrow (nil: as it is), bit for bit — ids, order, cost vectors
// and scores, any NaN matching any NaN — or "".
func same(got, want []core.Facility, narrow func(float64) float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d facilities %v, want %d %v", len(got), ids(got), len(want), ids(want))
	}
	bitsEq := func(g, w float64) bool {
		if narrow != nil {
			w = narrow(w)
		}
		return math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
	}
	for i := range want {
		g, w := got[i], want[i]
		eq := g.ID == w.ID && len(g.Costs) == len(w.Costs) && bitsEq(g.Score, w.Score)
		for c := 0; eq && c < len(w.Costs); c++ {
			eq = bitsEq(g.Costs[c], w.Costs[c])
		}
		if !eq {
			return fmt.Sprintf("result %d: facility %d %v score %g, want facility %d %v score %g",
				i, g.ID, g.Costs, g.Score, w.ID, w.Costs, w.Score)
		}
	}
	return ""
}

// Report is what a run of the lattice did: the nodes its rows pruned, so a
// caller can tell a pruning comparison that compared nothing (a reference
// row the selection does not hold counts nowhere), its wire requests, and
// what its update-mix rows saw.
type Report struct {
	Bounds int // source rows with bounds, under their source's own index
	Own    int // time rows' within, under the network's own index
	Shared int // time rows' within, under one index shared with the reference
	Served int // wire rows' within, under the served network's own index
	// Asked counts the wire requests by "row <name>", "kind <name>" and
	// "codec <name>", and by "skipped <kind>" the kinds an instance's query
	// could not be put on the wire for (a maximum aggregate, an infinite
	// budget).
	Asked map[string]int
	// The update-mix rows' reads whose window holds fewer than three
	// versions, and so fewer than all states, and the cached row's cache
	// hits and entries found invalidated while the writer ran.
	Narrow            int
	Hits, Invalidated int64
}

// add adds o's counts to r's.
func (r *Report) add(o Report) {
	r.Bounds += o.Bounds
	r.Own += o.Own
	r.Shared += o.Shared
	r.Served += o.Served
	r.Narrow += o.Narrow
	r.Hits += o.Hits
	r.Invalidated += o.Invalidated
	if r.Asked == nil {
		r.Asked = map[string]int{}
	}
	for k, n := range o.Asked {
		r.Asked[k] += n
	}
}

// Check runs the selected part of the lattice on in and fails t on the
// first answer that departs from the oracle, or from its reference row.
// Every source row must answer as the MemorySource row under LSA with the
// same enhancement and bounds settings does, bit for bit, work counters
// included; the reference row with bounds must answer as the one without,
// with the same work, except that within, the one kind that consults
// bounds, may only expand fewer nodes.
func Check(t testing.TB, in *testnet.Instance, sel Select) Report {
	t.Helper()
	// The instance's own seed, for the permuted numbering, the time
	// profiles and the maintainer's update script.
	seed := int64(in.G.NumEdges())*7919 + int64(in.G.NumFacilities())
	o := newOracle(in.G, in)
	srcs := openSources(t, in.G, seed, sel)
	var rep Report
	for k := Kind(0); k < numKinds; k++ {
		if _, period := instantOf[k]; period || !sel.Kinds.has(k) || !sel.any(EverySource) {
			continue
		}
		var ref [2][2]answer // by noEnh, bounds
		for i, r := range rows {
			if !r.sourceRow() || !r.reference() && !sel.Rows.has(i) {
				continue
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%v: %s: %v: %s", in, r.name, k, fmt.Sprintf(format, args...))
			}
			opt := core.Options{Engine: r.engine, NoEnhancements: r.noEnh}
			if r.bounds {
				opt.Bounds = srcs[r.source].bounds
			}
			a, err := run(k, srcs[r.source].src, in, opt)
			if err != nil {
				fail("%v", err)
			}
			if r.bounds && sel.Rows.has(i) {
				rep.Bounds += a.stats.PrunedNodes
			}
			if msg := o.check(k, in, a, inProcess); msg != "" {
				fail("oracle: %s", msg)
			}
			want := &ref[b2i(r.noEnh)][b2i(r.bounds)]
			if r.reference() {
				*want = a
				if !r.bounds {
					continue
				}
				// Compare with the reference row without bounds.
				want = &ref[b2i(r.noEnh)][0]
				if k == Within {
					if a.stats.NodeExpansions > want.stats.NodeExpansions {
						fail("%d node expansions with bounds > %d without", a.stats.NodeExpansions, want.stats.NodeExpansions)
					}
					a.stats = want.stats
				}
			}
			if msg := same(a.facs, want.facs, nil); msg != "" {
				fail("differs from %s: %s", refName(r), msg)
			}
			if a.stats != want.stats {
				fail("stats %+v, %s %+v", a.stats, refName(r), want.stats)
			}
		}
	}
	if sel.any(TimeRows) && slices.ContainsFunc(timeKinds, sel.Kinds.has) {
		rep.Own, rep.Shared = checkTime(t, in, sel, seed)
	}
	if sel.any(MaintainerRows) && (sel.Kinds.has(Skyline) || sel.Kinds.has(TopK)) {
		checkMaintainer(t, in, sel, srcs, seed)
	}
	if sel.any(UpdateRows) {
		checkUpdateMix(t, in, sel, o, srcs, seed, &rep)
	}
	if sel.any(WireRows) {
		checkWire(t, in, sel, o, srcs, seed, &rep)
	}
	return rep
}

func refName(r row) string {
	if r.reference() {
		return "the reference row without bounds"
	}
	return "the reference row"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// timeKinds are the kinds a time-dependent network answers: at an instant,
// and over a period.
var timeKinds = []Kind{Skyline, TopK, Nearest, Within, SkylinePeriod, TopKPeriod}

// timeNet is a time-dependent network over an instance's graph with a few
// seeded profiles, and the snapshots of it at the instants asked about.
type timeNet struct {
	in       *testnet.Instance
	tn       *timedep.Network
	rng      *rand.Rand
	profiled map[graph.EdgeID]timedep.Profile
	snaps    map[float64]*snapshot
}

// snapshot is the static network a time-dependent one is at an instant: its
// oracle, a MemorySource of it, and its pruning index.
type snapshot struct {
	g   *graph.Graph // the network at the instant
	o   *oracle
	mem expand.Source
	idx *index.Bounds
	ref map[[2]int]answer // by kind, noEnh: the MemorySource's answer under LSA
}

func newTimeNet(t testing.TB, in *testnet.Instance, seed int64, shape Profiles) *timeNet {
	t.Helper()
	g := in.G
	tv := &timeNet{in: in, tn: timedep.New(g), rng: rand.New(rand.NewSource(seed)), profiled: map[graph.EdgeID]timedep.Profile{}}
	rng, mult := tv.rng, tv.mult
	edges := []graph.EdgeID{in.Loc.Edge}
	for _, l := range in.Locs {
		edges = append(edges, l.Edge)
	}
	switch shape {
	case RandomProfiles:
		edges = []graph.EdgeID{in.Loc.Edge, graph.EdgeID(rng.Intn(g.NumEdges())), graph.EdgeID(rng.Intn(g.NumEdges()))}
		for _, e := range edges[rng.Intn(2):] {
			var p timedep.Profile
			for at := float64(rng.Intn(20)); len(p.Times) < 1+rng.Intn(3); at += float64(1 + rng.Intn(30)) {
				p.Times, p.Mult = append(p.Times, at), append(p.Mult, mult())
			}
			tv.set(t, e, p)
		}
	case RepeatingProfiles:
		for f := 0; f < g.NumFacilities(); f += max(1, g.NumFacilities()/2) {
			edges = append(edges, g.Facility(graph.FacilityID(f)).Edge)
		}
		a, b := mult(), mult()
		for i, e := range edges {
			tv.set(t, e, timedep.Profile{Times: []float64{11.5 + float64(i), 40.25, 55 + float64(i), 70.5}, Mult: []vec.Costs{a, a, b, b}})
		}
	case SharedAxisProfiles:
		for n := len(edges) + 12; len(edges) < n; {
			edges = append(edges, graph.EdgeID(rng.Intn(g.NumEdges())))
		}
		for _, e := range edges {
			p := timedep.Profile{Times: []float64{10, 20, 35, 50, 65, 80}}
			for range p.Times {
				p.Mult = append(p.Mult, mult())
			}
			tv.set(t, e, p)
		}
	}
	return tv
}

// mult draws a multiplier vector from {0.5, 1, 2, 3}.
func (tv *timeNet) mult() vec.Costs {
	m := make(vec.Costs, tv.in.G.D())
	for c := range m {
		m[c] = []float64{0.5, 1, 2, 3}[tv.rng.Intn(4)]
	}
	return m
}

// set gives edge e profile p.
func (tv *timeNet) set(t testing.TB, e graph.EdgeID, p timedep.Profile) {
	t.Helper()
	if err := tv.tn.SetProfile(e, p); err != nil {
		t.Fatal(err)
	}
	tv.profiled[e] = p
	tv.snaps = map[float64]*snapshot{}
}

// at returns the snapshot at instant at.
func (tv *timeNet) at(at float64) *snapshot {
	if s := tv.snaps[at]; s != nil {
		return s
	}
	g := testnet.Scaled(tv.in.G, func(e graph.EdgeID) vec.Costs { return multAt(tv.profiled[e], at) })
	s := &snapshot{g: g, o: newOracle(g, tv.in), mem: testnet.NewMemorySource(g), idx: index.FromGraph(g), ref: map[[2]int]answer{}}
	tv.snaps[at] = s
	return s
}

// reference returns the snapshot's MemorySource answer to kind k under LSA
// with the enhancement setting noEnh.
func (s *snapshot) reference(t testing.TB, in *testnet.Instance, k Kind, noEnh bool) answer {
	t.Helper()
	key := [2]int{int(k), b2i(noEnh)}
	a, ok := s.ref[key]
	if !ok {
		var err error
		if a, err = run(k, s.mem, in, core.Options{NoEnhancements: noEnh}); err != nil {
			t.Fatal(err)
		}
		s.ref[key] = a
	}
	return a
}

// checkTime runs the time rows: a time-dependent network over in.G with a
// few seeded profiles, queried before its first breakpoint, exactly on
// every breakpoint and at a random instant, and swept over the period, then
// again after an edit that moves its time axis. At every instant each
// answer must equal the oracle on the network's snapshot, and the answer of
// core over a MemorySource of that snapshot, under LSA with the row's
// enhancement setting, bit for bit with its work counters; a sweep is held
// to the same answers by checkPeriod. Within, which prunes against the
// network's own index by default, may only expand fewer nodes than that
// unpruned reference; given one shared index, numbered for each path, it
// must do the same work. checkTime returns the nodes within pruned under
// the network's own index and under the shared one.
func checkTime(t testing.TB, in *testnet.Instance, sel Select, seed int64) (own, shared int) {
	t.Helper()
	ctx := context.Background()
	tv := newTimeNet(t, in, seed, sel.Profiles)
	base := flat.Compile(in.G)
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			// Move the axis: shift one profile by half a unit.
			e := slices.Min(slices.Collect(maps.Keys(tv.profiled)))
			moved := timedep.Profile{Mult: tv.profiled[e].Mult}
			for _, at := range tv.profiled[e].Times {
				moved.Times = append(moved.Times, at+0.5)
			}
			tv.set(t, e, moved)
		}
		// The whole period, and a part that starts and ends inside
		// elementary intervals.
		b := append(tv.tn.Breakpoints(PeriodFrom, PeriodTo), PeriodTo)
		inside := func(i int, lo, hi float64) float64 { return b[i] + (lo+(hi-lo)*tv.rng.Float64())*(b[i+1]-b[i]) }
		first := tv.rng.Intn(len(b) - 1)
		last := first + tv.rng.Intn(len(b)-1-first)
		for _, span := range [][2]float64{wholeSpan, {inside(first, 0.1, 0.4), inside(last, 0.6, 0.9)}} {
			for i, r := range rows {
				for _, k := range []Kind{SkylinePeriod, TopKPeriod} {
					if !r.time || !sel.Rows.has(i) || !sel.Kinds.has(k) {
						continue
					}
					ivs, err := tv.sweep(k, span, core.Options{Engine: r.engine, NoEnhancements: r.noEnh})
					if err == nil {
						err = tv.checkPeriod(t, k, span, ivs, r.noEnh, inProcess)
					}
					if err != nil {
						t.Fatalf("%v: %s, pass %d: %v over %v: %v", in, r.name, pass, k, span, err)
					}
				}
			}
		}
		for _, at := range append([]float64{-5, tv.rng.Float64() * 110}, tv.tn.Breakpoints(0, 100)...) {
			snap := tv.at(at)
			for _, k := range timeKinds[:4] {
				if !sel.Kinds.has(k) {
					continue
				}
				for i, r := range rows {
					if !r.time || !sel.Rows.has(i) {
						continue
					}
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("%v: %s t=%g: %v: %s", in, r.name, at, k, fmt.Sprintf(format, args...))
					}
					opt := core.Options{Engine: r.engine, NoEnhancements: r.noEnh}
					got, err := runAt(ctx, tv.tn, k, in, at, opt)
					if err != nil {
						fail("%v", err)
					}
					if msg := tv.verifyAt(t, k, at, r.noEnh, got); msg != "" {
						fail("%s", msg)
					}
					if k != Within {
						continue
					}
					own += got.stats.PrunedNodes
					sharedWant, err := run(k, snap.mem, in, core.Options{NoEnhancements: r.noEnh, Bounds: snap.idx})
					if err != nil {
						t.Fatal(err)
					}
					opt.Bounds = flatIndex(base, snap.g)
					sharedGot, err := runAt(ctx, tv.tn, k, in, at, opt)
					if err != nil {
						fail("%v", err)
					}
					if msg := same(sharedGot.facs, sharedWant.facs, nil); msg != "" || sharedGot.stats != sharedWant.stats {
						fail("under one shared index: %s; stats %+v, want %+v", msg, sharedGot.stats, sharedWant.stats)
					}
					shared += sharedGot.stats.PrunedNodes
				}
			}
		}
	}
	return own, shared
}

// verifyAt reports how got, an answer to kind k at instant at with the
// enhancement setting noEnh, departs from the oracle on the snapshot and
// from its reference, bit for bit with its work counters — except that
// within, which prunes against the network's own index, may only expand
// fewer nodes — or "".
func (tv *timeNet) verifyAt(t testing.TB, k Kind, at float64, noEnh bool, got answer) string {
	t.Helper()
	snap := tv.at(at)
	want := snap.reference(t, tv.in, k, noEnh)
	if msg := snap.o.check(k, tv.in, got, inProcess); msg != "" {
		return "oracle on the snapshot: " + msg
	}
	if msg := same(got.facs, want.facs, nil); msg != "" {
		return "differs from the snapshot reference: " + msg
	}
	if got.stats != want.stats && (k != Within || got.stats.NodeExpansions > want.stats.NodeExpansions) {
		return fmt.Sprintf("stats %+v, snapshot reference %+v", got.stats, want.stats)
	}
	return ""
}

// interval is one interval of a period sweep's answer.
type interval struct {
	from, to float64
	answer
}

// sweep runs period kind k over span in process.
func (tv *timeNet) sweep(k Kind, span [2]float64, opt core.Options) ([]interval, error) {
	ctx := context.Background()
	ivs, err := tv.tn.SkylineOverPeriod(ctx, tv.in.Loc, span[0], span[1], opt)
	if k == TopKPeriod {
		ivs, err = tv.tn.TopKOverPeriod(ctx, tv.in.Loc, tv.in.Agg, tv.in.K, span[0], span[1], opt)
	}
	out := make([]interval, len(ivs))
	for i, iv := range ivs {
		out[i] = interval{iv.From, iv.To, answer{iv.Result.Facilities, iv.Result.Stats}}
	}
	return out, err
}

// checkPeriod holds a sweep of period kind k over span to its definition:
// intervals that tile the span at instants of the time axis, each a
// maximal stretch of one preferred set. At every instant of the axis the
// sweep covers, the snapshot reference (the MemorySource's answer under LSA
// with enhancement setting noEnh) must report the preferred set of the
// interval holding it; where the interval starts, the interval must be that
// answer, bit for bit as tl narrows it, with its work counters, and it must
// equal the oracle on the snapshot as tl allows.
func (tv *timeNet) checkPeriod(t testing.TB, k Kind, span [2]float64, ivs []interval, noEnh bool, tl tolerance) error {
	t.Helper()
	instant, starts := instantOf[k], tv.tn.Breakpoints(span[0], span[1])
	if len(ivs) == 0 || ivs[0].from != span[0] || ivs[len(ivs)-1].to != span[1] {
		return fmt.Errorf("%d intervals do not span %v", len(ivs), span)
	}
	for i, iv := range ivs {
		if !(iv.from < iv.to) || !slices.Contains(starts, iv.from) || i > 0 && iv.from != ivs[i-1].to {
			return fmt.Errorf("interval %d [%g, %g) does not continue the tiling at an instant of the axis %v", i, iv.from, iv.to, starts)
		}
		if i > 0 && slices.Equal(sortedIDs(iv.facs), sortedIDs(ivs[i-1].facs)) {
			return fmt.Errorf("intervals %d and %d hold one preferred set %v", i-1, i, sortedIDs(iv.facs))
		}
	}
	for _, at := range starts {
		i := slices.IndexFunc(ivs, func(iv interval) bool { return iv.from <= at && at < iv.to })
		iv, snap := ivs[i], tv.at(at)
		want := snap.reference(t, tv.in, instant, noEnh)
		if at != iv.from {
			if !slices.Equal(sortedIDs(want.facs), sortedIDs(iv.facs)) {
				return fmt.Errorf("t=%g: the snapshot's preferred set is %v, interval %d [%g, %g) holds %v",
					at, sortedIDs(want.facs), i, iv.from, iv.to, sortedIDs(iv.facs))
			}
			continue
		}
		if msg := snap.o.check(instant, tv.in, iv.answer, tl); msg != "" {
			return fmt.Errorf("interval %d at t=%g: oracle on the snapshot: %s", i, at, msg)
		}
		if msg := same(iv.facs, want.facs, tl.narrow); msg != "" {
			return fmt.Errorf("interval %d at t=%g: differs from the snapshot reference: %s", i, at, msg)
		}
		if iv.stats != want.stats {
			return fmt.Errorf("interval %d at t=%g: stats %+v, snapshot reference %+v", i, at, iv.stats, want.stats)
		}
	}
	return nil
}

func sortedIDs(fs []core.Facility) []graph.FacilityID { return slices.Sorted(slices.Values(ids(fs))) }

// multAt is the multiplier p applies at instant at: that of its last
// breakpoint at or before at, none before the first.
func multAt(p timedep.Profile, at float64) vec.Costs {
	var m vec.Costs
	for i, bt := range p.Times {
		if bt <= at {
			m = p.Mult[i]
		}
	}
	return m
}

// runAt answers kind k on the time-dependent network at instant at.
func runAt(ctx context.Context, tn *timedep.Network, k Kind, in *testnet.Instance, at float64, opt core.Options) (answer, error) {
	var res *core.Result
	var err error
	switch k {
	case Skyline:
		res, err = tn.SkylineAt(ctx, in.Loc, at, opt)
	case TopK:
		res, err = tn.TopKAt(ctx, in.Loc, in.Agg, in.K, at, opt)
	case Nearest:
		res, err = tn.NearestAt(ctx, in.Loc, in.CostIdx, in.K, at, opt)
	case Within:
		res, err = tn.WithinAt(ctx, in.Loc, in.Budget, at, opt)
	default:
		return answer{}, fmt.Errorf("no time-dependent %v query", k)
	}
	if err != nil {
		return answer{}, err
	}
	return answer{res.Facilities, res.Stats}, nil
}

// site is where a maintained facility lies.
type site struct {
	edge graph.EdgeID
	t    float64
}

// checkMaintainer runs the maintainer rows: a dynamic.Maintainer built over
// each source, then driven through the seeded script, after every step of
// which every source must answer as the MemorySource one does, bit for bit.
func checkMaintainer(t testing.TB, in *testnet.Instance, sel Select, srcs []source, seed int64) {
	t.Helper()
	var refTrace []string
	for i, r := range rows {
		if !r.maintainer || r.source > 0 && !sel.Rows.has(i) {
			continue
		}
		label := fmt.Sprintf("%v: %s", in, r.name)
		m, err := dynamic.New(srcs[r.source].src, in.Loc, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		trace := script(t, label, in, m, seed, nil)
		if r.source == 0 {
			refTrace = trace
		} else if !slices.Equal(trace, refTrace) {
			t.Fatalf("%s: answers differ from the MemorySource maintainer's:\n%v\nwant\n%v", label, trace, refTrace)
		}
	}
}

// script drives m, maintained at in.Loc, through one seeded insert/delete
// script — its first insert on an edge the location cannot reach, if there
// is one, a third of the others on the query edge — running before (if not
// nil) ahead of every step, and returns its answers. m must hold exactly the
// facilities the location reaches, and after every step each entry must
// equal the oracle's vector on the graph rebuilt with the live facilities,
// Skyline and TopK the oracle's answers there (the +Inf-throughout entry of
// an unreachable insert is in neither).
func script(t testing.TB, label string, in *testnet.Instance, m *dynamic.Maintainer, seed int64, before func()) []string {
	t.Helper()
	g, loc := in.G, in.Loc
	reach := testnet.NodeCosts(g, loc, 0)
	var unreachable []graph.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if graph.EdgeID(e) != loc.Edge && math.IsInf(reach[ed.U], 1) && (g.Directed() || math.IsInf(reach[ed.V], 1)) {
			unreachable = append(unreachable, graph.EdgeID(e))
		}
	}
	costs := testnet.AllCosts(g, loc)
	initial, _, err := m.TopK(in.Agg, g.NumFacilities()+1)
	if err != nil {
		t.Fatal(err)
	}
	live := map[dynamic.Handle]site{}
	for _, e := range initial {
		live[e.Handle] = site{e.Edge, e.T}
	}
	for p := 0; p < g.NumFacilities(); p++ {
		if _, ok := live[dynamic.Handle(p)]; ok == allInf(costs[p]) {
			t.Fatalf("%s: facility %d maintained=%v, reachable=%v", label, p, ok, !ok)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	for step := 0; step < 8; step++ {
		if before != nil {
			before()
		}
		if (step > 0 || len(unreachable) == 0) && len(live) > 0 && rng.Intn(3) == 0 {
			hs := slices.Sorted(maps.Keys(live))
			h := hs[rng.Intn(len(hs))]
			if err := m.Delete(h); err != nil {
				t.Fatal(err)
			}
			delete(live, h)
		} else {
			at := site{graph.EdgeID(rng.Intn(g.NumEdges())), []float64{0, 0.5, 1}[rng.Intn(3)]}
			switch {
			case step == 0 && len(unreachable) > 0:
				at.edge = unreachable[rng.Intn(len(unreachable))]
			case rng.Intn(3) == 0:
				at.edge = loc.Edge
			}
			h, err := m.Insert(at.edge, at.t)
			if err != nil {
				t.Fatal(err)
			}
			live[h] = at
		}
		trace = append(trace, verifyMaintainer(t, fmt.Sprintf("%s step %d", label, step), in, m, live))
	}
	return trace
}

func allInf(c vec.Costs) bool {
	return !slices.ContainsFunc(c, func(v float64) bool { return !math.IsInf(v, 1) })
}

// verifyMaintainer checks m against the oracle on the graph rebuilt with
// the live facilities and returns its answers, with every cost's bits, for
// the comparison across sources.
func verifyMaintainer(t testing.TB, label string, in *testnet.Instance, m *dynamic.Maintainer, live map[dynamic.Handle]site) string {
	t.Helper()
	hs := slices.Sorted(maps.Keys(live))
	edges := make([]graph.EdgeID, len(hs))
	ts := make([]float64, len(hs))
	for i, h := range hs {
		edges[i], ts[i] = live[h].edge, live[h].t
	}
	costs := testnet.AllCosts(testnet.WithFacilities(in.G, edges, ts), in.Loc)
	// A top-k longer than the live set lists every entry the location
	// reaches: exactly the live facilities the rebuild reaches, each with
	// its edge, fraction and costs.
	all, _, err := m.TopK(in.Agg, len(hs)+1)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[dynamic.Handle]dynamic.Entry{}
	for _, e := range all {
		listed[e.Handle] = e
	}
	out := "entries:"
	reached := 0
	for i, h := range hs {
		e, ok := listed[h]
		if ok == allInf(costs[i]) {
			t.Fatalf("%s: entry %d listed %v, but the rebuild reaches it %v", label, h, ok, !ok)
		}
		if !ok {
			continue
		}
		reached++
		if e.Edge != edges[i] || e.T != ts[i] {
			t.Fatalf("%s: entry %d = %+v; want edge %d t %g", label, h, e, edges[i], ts[i])
		}
		if msg := checkCosts(core.Facility{ID: graph.FacilityID(h), Costs: e.Costs}, costs[i], -1, false, inProcess); msg != "" {
			t.Fatalf("%s: entry against the rebuild: %s", label, msg)
		}
		out += fmt.Sprintf(" %d%x", h, bits(e.Costs))
	}
	if reached != len(listed) {
		t.Fatalf("%s: top-k lists %d entries, %d of them live and reachable", label, len(listed), reached)
	}
	pos := func(h dynamic.Handle) graph.FacilityID {
		i, _ := slices.BinarySearch(hs, h)
		return graph.FacilityID(i)
	}
	var sky []graph.FacilityID
	for _, e := range m.Skyline() {
		sky = append(sky, pos(e.Handle))
	}
	if want := testnet.SkylineOf(costs); !slices.Equal(sky, want) {
		t.Fatalf("%s: skyline %v, oracle on the rebuild %v (live %v)", label, sky, want, hs)
	}
	out += fmt.Sprintf(" skyline %v", sky)
	rank := testnet.RankOf(costs, in.Agg)
	for _, k := range []int{in.K, len(hs) + 2} {
		es, scores, err := m.TopK(in.Agg, k)
		if err != nil {
			t.Fatal(err)
		}
		want := rank[:min(k, len(rank))]
		if len(es) != len(want) || len(scores) != len(want) {
			t.Fatalf("%s: top-%d has %d entries, oracle on the rebuild %v", label, k, len(es), want)
		}
		for i, e := range es {
			if pos(e.Handle) != want[i].ID || !inProcess.near(scores[i], want[i].Score) {
				t.Fatalf("%s: top-%d result %d is %d (score %g), oracle on the rebuild %v", label, k, i, e.Handle, scores[i], want)
			}
			out += fmt.Sprintf(" %d:%x", e.Handle, math.Float64bits(scores[i]))
		}
	}
	return out
}

func bits(c vec.Costs) []uint64 {
	out := make([]uint64, len(c))
	for i, v := range c {
		out[i] = math.Float64bits(v)
	}
	return out
}
