package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/testsupport/testnet"
	"mcn/internal/vec"
)

// sampleGraph builds a small fixed network with facilities.
func sampleGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2, false)
	n0 := b.AddNode(0, 0)
	n1 := b.AddNode(1, 0)
	n2 := b.AddNode(1, 1)
	n3 := b.AddNode(2, 1)
	e0 := b.AddEdge(n0, n1, vec.Of(1, 4))
	e1 := b.AddEdge(n1, n2, vec.Of(2, 3))
	e2 := b.AddEdge(n2, n3, vec.Of(3, 2))
	b.AddEdge(n0, n2, vec.Of(4, 1))
	b.AddFacility(e0, 0.5)
	b.AddFacility(e1, 0.25)
	b.AddFacility(e1, 0.75)
	b.AddFacility(e2, 0.1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func openNetwork(t *testing.T, g *graph.Graph, frac float64) *Network {
	t.Helper()
	dev, err := BuildMem(g)
	if err != nil {
		t.Fatalf("BuildMem: %v", err)
	}
	n, err := OpenOptions(dev, frac, PoolOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return n
}

// ranks returns the database's id of each node of g: its rank in
// graph.LocalityOrder.
func ranks(g *graph.Graph) []graph.NodeID {
	rank := make([]graph.NodeID, g.NumNodes())
	for r, v := range graph.LocalityOrder(g) {
		rank[v] = graph.NodeID(r)
	}
	return rank
}

// verifyAgainstGraph checks that every network read agrees with the
// in-memory graph, the network naming each node by its rank in the locality
// order, and that the rank table maps those ids back to the graph's.
func verifyAgainstGraph(t *testing.T, g *graph.Graph, n *Network) {
	t.Helper()
	if n.D() != g.D() || n.Directed() != g.Directed() {
		t.Fatalf("header mismatch: d=%d/%d directed=%v/%v", n.D(), g.D(), n.Directed(), g.Directed())
	}
	if n.NumNodes() != g.NumNodes() || n.NumEdges() != g.NumEdges() || n.NumFacilities() != g.NumFacilities() {
		t.Fatalf("counts mismatch")
	}
	if order := graph.LocalityOrder(g); !slices.Equal(n.order, order) {
		t.Fatalf("rank table %v, want the locality order %v", n.order, order)
	}
	rank := ranks(g)
	for v := 0; v < g.NumNodes(); v++ {
		arcs := g.Arcs(graph.NodeID(v))
		entries, err := n.Adjacency(rank[v])
		if err != nil {
			t.Fatalf("Adjacency(%d): %v", v, err)
		}
		if len(entries) != len(arcs) {
			t.Fatalf("node %d: %d entries, want %d", v, len(entries), len(arcs))
		}
		for i, a := range arcs {
			e := entries[i]
			if e.Neighbor != rank[a.Neighbor] || e.Edge != a.Edge || e.Forward != a.Forward {
				t.Fatalf("node %d arc %d: got %+v, want %+v", v, i, e, a)
			}
			if !e.W.Equal(g.Edge(a.Edge).W) {
				t.Fatalf("node %d arc %d: costs %v, want %v", v, i, e.W, g.Edge(a.Edge).W)
			}
			wantFacs := g.EdgeFacilities(a.Edge)
			if e.FacCount != len(wantFacs) {
				t.Fatalf("edge %d: facCount %d, want %d", a.Edge, e.FacCount, len(wantFacs))
			}
			facs, err := n.Facilities(e.FacRef, e.FacCount)
			if err != nil {
				t.Fatalf("Facilities(edge %d): %v", a.Edge, err)
			}
			for j, fe := range facs {
				if fe.ID != wantFacs[j] {
					t.Fatalf("edge %d fac %d: id %d, want %d", a.Edge, j, fe.ID, wantFacs[j])
				}
				if math.Abs(fe.T-g.Facility(fe.ID).T) > 1e-15 {
					t.Fatalf("edge %d fac %d: T %g, want %g", a.Edge, j, fe.T, g.Facility(fe.ID).T)
				}
			}
		}
	}
	for p := 0; p < g.NumFacilities(); p++ {
		e, err := n.FacilityEdge(graph.FacilityID(p))
		if err != nil {
			t.Fatalf("FacilityEdge(%d): %v", p, err)
		}
		if e != g.Facility(graph.FacilityID(p)).Edge {
			t.Fatalf("FacilityEdge(%d) = %d, want %d", p, e, g.Facility(graph.FacilityID(p)).Edge)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		info, err := n.EdgeInfo(graph.EdgeID(e))
		if err != nil {
			t.Fatalf("EdgeInfo(%d): %v", e, err)
		}
		want := g.Edge(graph.EdgeID(e))
		if info.U != rank[want.U] || info.V != rank[want.V] || !info.W.Equal(want.W) {
			t.Fatalf("EdgeInfo(%d) = %+v, want %+v", e, info, want)
		}
		if info.FacCount != len(g.EdgeFacilities(graph.EdgeID(e))) {
			t.Fatalf("EdgeInfo(%d).FacCount = %d", e, info.FacCount)
		}
	}
}

func TestNetworkRoundtrip(t *testing.T) {
	g := sampleGraph(t)
	verifyAgainstGraph(t, g, openNetwork(t, g, 0.5))
}

func TestNetworkRoundtripZeroBuffer(t *testing.T) {
	g := sampleGraph(t)
	n := openNetwork(t, g, 0)
	verifyAgainstGraph(t, g, n)
	s := n.Stats()
	if s.Physical != s.Logical {
		t.Errorf("zero buffer must make every read physical: %+v", s)
	}
}

func TestNetworkDirected(t *testing.T) {
	b := graph.NewBuilder(3, true)
	testnet.AddNodes(b, 3)
	e0 := b.AddEdge(0, 1, vec.Of(1, 2, 3))
	b.AddEdge(1, 2, vec.Of(4, 5, 6))
	b.AddFacility(e0, 0.4)
	g := testnet.MustBuild(b)
	verifyAgainstGraph(t, g, openNetwork(t, g, 0.5))
}

// randomGraph builds a random network, directed or not, with a few isolated
// nodes and at least one facility. coords picks where the nodes lie: 0 at
// random points, 1 all on one point (the layout keeps id order), 2 on a 3×3
// grid of points (many ties in the locality order).
func randomGraph(t *testing.T, rng *rand.Rand, coords int) *graph.Graph {
	t.Helper()
	d := 1 + rng.Intn(5)
	nn := 2 + rng.Intn(120)
	b := graph.NewBuilder(d, rng.Intn(2) == 0)
	for v := 0; v < nn+1+rng.Intn(4); v++ { // the ids past nn stay isolated
		switch coords {
		case 0:
			b.AddNode(rng.Float64()*1000-500, rng.Float64()*1000-500)
		case 1:
			b.AddNode(7, -3)
		default:
			b.AddNode(float64(rng.Intn(3)), float64(rng.Intn(3)))
		}
	}
	ne := 1 + rng.Intn(3*nn)
	for i := 0; i < ne; i++ {
		u := graph.NodeID(rng.Intn(nn))
		v := graph.NodeID(rng.Intn(nn))
		if u == v {
			v = (v + 1) % graph.NodeID(nn)
		}
		w := make(vec.Costs, d)
		for j := range w {
			w[j] = rng.Float64() * 100
		}
		b.AddEdge(u, v, w)
	}
	for i := 0; i < 1+rng.Intn(200); i++ {
		b.AddFacility(graph.EdgeID(rng.Intn(ne)), rng.Float64())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Every read agrees with the graph, and LoadGraph(OpenOptions(Build(g))) is g, on
// graphs with and without coordinates, directed or not, with isolated nodes
// and facility-carrying edges.
func TestNetworkRandomizedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(t, rng, trial%3)
		n := openNetwork(t, g, 0.3)
		verifyAgainstGraph(t, g, n)
		sameAsLoaded(t, trial, g, n)
	}
}

// A single edge with thousands of facilities forces its facility record to
// span multiple pages.
func TestNetworkHugeFacilityRecord(t *testing.T) {
	b := graph.NewBuilder(2, false)
	testnet.AddNodes(b, 2)
	e := b.AddEdge(0, 1, vec.Of(1, 1))
	const nf = 2000 // 2000 × 12 bytes ≈ 6 pages
	for i := 0; i < nf; i++ {
		b.AddFacility(e, float64(i)/float64(nf))
	}
	g := testnet.MustBuild(b)
	n := openNetwork(t, g, 0.5)
	entries, err := n.Adjacency(ranks(g)[0])
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].FacCount != nf {
		t.Fatalf("FacCount = %d, want %d", entries[0].FacCount, nf)
	}
	facs, err := n.Facilities(entries[0].FacRef, entries[0].FacCount)
	if err != nil {
		t.Fatal(err)
	}
	for i, fe := range facs {
		if int(fe.ID) != i {
			t.Fatalf("facility %d out of order (got id %d)", i, fe.ID)
		}
	}
}

func TestNetworkFilePersistence(t *testing.T) {
	g := sampleGraph(t)
	path := filepath.Join(t.TempDir(), "net.mcn")
	dev, err := BuildMem(g)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	writeImage(t, dev, path)
	ro, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	n, err := OpenOptions(ro, 0.2, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGraph(t, g, n)
}

func TestOpenRejectsGarbage(t *testing.T) {
	dev := NewMemDevice()
	if _, err := OpenOptions(dev, 0.1, PoolOptions{}); err == nil {
		t.Error("empty device opened")
	}
	if _, err := dev.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOptions(dev, 0.1, PoolOptions{}); err == nil {
		t.Error("zero page accepted as header")
	}
}

func TestBuildRejectsDirtyDevice(t *testing.T) {
	g := sampleGraph(t)
	dev := NewMemDevice()
	if _, err := dev.Alloc(); err != nil {
		t.Fatal(err)
	}
	if err := Build(g, dev); err == nil {
		t.Error("Build accepted a non-empty device")
	}
}

// A count the layout stores in 16 bits — a node's arcs, an edge's
// facilities, the cost types — must fail the build when it does not fit,
// naming what overflowed, not wrap around and read back as a smaller count.
func TestBuildRejectsOverflowingCounts(t *testing.T) {
	const over = math.MaxUint16 + 1
	t.Run("arcs", func(t *testing.T) {
		b := graph.NewBuilder(1, false)
		hub := testnet.AddNodes(b, over+1)
		for leaf := hub + 1; leaf <= hub+over; leaf++ {
			b.AddEdge(hub, leaf, vec.Of(1))
		}
		g := testnet.MustBuild(b)
		dev := NewMemDevice()
		err := Build(g, dev)
		if err == nil {
			n, err := OpenOptions(dev, 0, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			arcs, err := n.Adjacency(hub)
			t.Fatalf("Build accepted a node of %d arcs; it reads back %d arcs (err %v)", over, len(arcs), err)
		}
		if want := fmt.Sprintf("node %d has %d arcs", hub, over); !strings.Contains(err.Error(), want) {
			t.Errorf("Build: %v, want an error containing %q", err, want)
		}
	})
	t.Run("facilities", func(t *testing.T) {
		b := graph.NewBuilder(1, false)
		testnet.AddNodes(b, 2)
		e := b.AddEdge(0, 1, vec.Of(1))
		for i := 0; i < over; i++ {
			b.AddFacility(e, float64(i)/over)
		}
		g := testnet.MustBuild(b)
		dev := NewMemDevice()
		err := Build(g, dev)
		if err == nil {
			n, err := OpenOptions(dev, 0, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			arcs, err := n.Adjacency(0)
			if err != nil {
				t.Fatal(err)
			}
			t.Fatalf("Build accepted an edge of %d facilities; it reads back %d", over, arcs[0].FacCount)
		}
		if want := fmt.Sprintf("edge %d has %d facilities", e, over); !strings.Contains(err.Error(), want) {
			t.Errorf("Build: %v, want an error containing %q", err, want)
		}
	})
	t.Run("costTypes", func(t *testing.T) {
		b := graph.NewBuilder(over, false)
		testnet.AddNodes(b, 2)
		b.AddEdge(0, 1, make(vec.Costs, over))
		g := testnet.MustBuild(b)
		dev := NewMemDevice()
		err := Build(g, dev)
		if err == nil {
			n, err := OpenOptions(dev, 0, PoolOptions{})
			if err != nil {
				t.Fatalf("Build accepted %d cost types; the database does not open: %v", over, err)
			}
			t.Fatalf("Build accepted %d cost types; it reads back d = %d", over, n.D())
		}
		if want := fmt.Sprintf("%d cost types", over); !strings.Contains(err.Error(), want) {
			t.Errorf("Build: %v, want an error containing %q", err, want)
		}
	})
}

func TestAdjacencyOutOfRange(t *testing.T) {
	n := openNetwork(t, sampleGraph(t), 0.1)
	if _, err := n.Adjacency(graph.NodeID(999)); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// The persisted bounds table must round-trip exactly: the loaded index is
// byte-identical to one rebuilt from the in-memory graph and renumbered into
// the database's node ids. Nodes lie at random points, so the locality order
// is not the identity.
func TestNetworkBoundsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		d := 1 + rng.Intn(4)
		nn := 2 + rng.Intn(80)
		b := graph.NewBuilder(d, rng.Intn(2) == 0)
		for v := 0; v < nn; v++ {
			b.AddNode(rng.Float64(), rng.Float64())
		}
		ne := nn + rng.Intn(2*nn)
		for i := 0; i < ne; i++ {
			u := graph.NodeID(rng.Intn(nn))
			v := graph.NodeID(rng.Intn(nn))
			if u == v {
				v = (v + 1) % graph.NodeID(nn)
			}
			w := make(vec.Costs, d)
			for j := range w {
				w[j] = 1 + rng.Float64()*50
			}
			b.AddEdge(u, v, w)
		}
		for i := 0; i < 1+rng.Intn(10); i++ {
			b.AddFacility(graph.EdgeID(rng.Intn(ne)), rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := openNetwork(t, g, 0.3)
		got := n.Bounds()
		if got == nil {
			t.Fatal("database opened with nil bounds")
		}
		want, rank := index.FromGraph(g), ranks(g)
		gd := got.Data()
		if len(gd) != len(want.Data()) {
			t.Fatalf("bounds table of %d values, want %d", len(gd), len(want.Data()))
		}
		for i := 0; i < g.D(); i++ {
			for v, id := range rank {
				gv, wv := got.LowerBound(i, id), want.LowerBound(i, graph.NodeID(v))
				if math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("criterion %d node %d (database node %d): bound %v, want %v", i, v, id, gv, wv)
				}
			}
		}
	}
}

// A database of any other layout version is refused with the way out named.
func TestOpenRejectsOtherLayoutVersions(t *testing.T) {
	dev, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := dev.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{1, 2, 3, 4, version + 1} {
		binary.LittleEndian.PutUint16(buf[4:], v)
		if err := dev.WritePage(0, buf); err != nil {
			t.Fatal(err)
		}
		_, err := OpenOptions(dev, 0.3, PoolOptions{})
		if err == nil || !strings.Contains(err.Error(), "mcngen") {
			t.Errorf("version %d: Open error = %v, want one that says to regenerate with mcngen", v, err)
		}
	}
}

// patchedHeader serves page0 in place of the wrapped device's header page.
type patchedHeader struct {
	Device
	page0 []byte
}

func (d *patchedHeader) ReadPage(id PageID, buf []byte) error {
	if id == 0 {
		copy(buf, d.page0)
		return nil
	}
	return d.Device.ReadPage(id, buf)
}

// reseal recomputes a header page's own checksum, so a test can hand Open a
// header that is consistent with itself but names impossible values.
func reseal(page0 []byte) {
	binary.LittleEndian.PutUint32(page0[headerCRCOff:], PageChecksum(page0[:headerCRCOff]))
}

// openAllocs opens dev and reports the bytes Open allocated and its error.
func openAllocs(dev Device) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := OpenOptions(dev, 0.3, PoolOptions{})
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// The header page carries its own checksum, so overwriting any of its sizes
// or page ids — even with an in-range value — must make Open fail cleanly:
// not panic, and not allocate a table sized from the damaged value. With the
// checksum resealed over the damage, the header's validation is what must
// refuse every out-of-range value; an in-range d may go undetected there,
// and Open must just not panic on it.
func TestOpenRejectsDamagedHeader(t *testing.T) {
	clean, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, PageSize)
	if err := clean.ReadPage(0, orig); err != nil {
		t.Fatal(err)
	}
	numPages := uint32(clean.NumPages())
	le := binary.LittleEndian

	type damage struct {
		name  string
		apply func(buf []byte)
		// validated: validation refuses the damage even when resealed.
		validated bool
	}
	var cases []damage
	for _, f := range []struct {
		name string
		off  int
	}{
		{"adjTreeRoot", 24}, {"facTreeRoot", 28}, {"edgeTreeRoot", 32},
		{"dataFirst", 36}, {"checksumFirst", 40}, {"checksumPages", 44},
		{"boundsFirst", 48}, {"rankFirst", 52},
	} {
		for _, v := range []uint32{0xFFFFFFFF, numPages} {
			f, v := f, v
			cases = append(cases, damage{
				fmt.Sprintf("%s=%#x", f.name, v),
				func(buf []byte) { le.PutUint32(buf[f.off:], v) },
				true,
			})
		}
	}
	cases = append(cases,
		damage{"d=0", func(buf []byte) { le.PutUint16(buf[6:], 0) }, true},
		damage{"d=0xffff", func(buf []byte) { le.PutUint16(buf[6:], 0xFFFF) }, true},
		damage{"numNodes=0xffffffff", func(buf []byte) { le.PutUint32(buf[12:], 0xFFFFFFFF) }, true},
		// The bounds table of a wrong but in-range d still fits its page.
		damage{"d=numPages", func(buf []byte) { le.PutUint16(buf[6:], uint16(numPages)) }, false},
		// A wrong numNodes reads a rank table that is no permutation.
		damage{"numNodes=numPages", func(buf []byte) { le.PutUint32(buf[12:], numPages) }, true},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			page0 := append([]byte(nil), orig...)
			c.apply(page0)
			grew, err := openAllocs(&patchedHeader{Device: clean, page0: page0})
			if !errors.Is(err, ErrChecksum) {
				t.Errorf("Open error = %v, want a header checksum mismatch", err)
			}
			reseal(page0)
			grewSealed, errSealed := openAllocs(&patchedHeader{Device: clean, page0: page0})
			if c.validated && errSealed == nil {
				t.Error("Open accepted the damaged header with its checksum resealed")
			}
			if g := max(grew, grewSealed); g > 8<<20 {
				t.Errorf("Open allocated %d MiB on a %d-page database", g>>20, numPages)
			}
		})
	}
}

// Every single-bit flip in the header bytes the layout uses must fail Open:
// the magic and version checks catch their own fields, the header checksum
// everything else, itself included.
func TestOpenRejectsHeaderBitFlips(t *testing.T) {
	clean, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, PageSize)
	if err := clean.ReadPage(0, orig); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < (headerCRCOff+4)*8; bit++ {
		page0 := append([]byte(nil), orig...)
		page0[bit/8] ^= 1 << (bit % 8)
		if _, err := OpenOptions(&patchedHeader{Device: clean, page0: page0}, 0.3, PoolOptions{}); err == nil {
			t.Errorf("header byte %d bit %d flipped: Open accepted it", bit/8, bit%8)
		}
	}
}

// rewritePage applies mutate to page id of a built database and updates the
// page's checksum-table slot to match, so that the damage reaches whatever
// validates the page's content rather than the checksum.
func rewritePage(t *testing.T, dev *MemDevice, id PageID, mutate func(page []byte)) {
	t.Helper()
	hdrPage := make([]byte, PageSize)
	if err := dev.ReadPage(0, hdrPage); err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(hdrPage)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	if err := dev.ReadPage(id, page); err != nil {
		t.Fatal(err)
	}
	mutate(page)
	if err := dev.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	slot := (int(id) - 1) * 8
	sumID := h.checksumFirst + PageID(slot/PageSize)
	sums := make([]byte, PageSize)
	if err := dev.ReadPage(sumID, sums); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(sums[slot%PageSize:], uint64(PageChecksum(page)))
	if err := dev.WritePage(sumID, sums); err != nil {
		t.Fatal(err)
	}
}

// A rank table that is not a permutation of 0..numNodes-1 — one that would
// give two records one graph node, or name a node past the last one — is
// refused at Open, even when its page checksum matches, without allocating
// beyond the database's own tables.
func TestOpenRejectsHostileRankTable(t *testing.T) {
	le := binary.LittleEndian
	for _, c := range []struct {
		name   string
		mutate func(ranks []byte)
		want   string
	}{
		{"duplicate", func(r []byte) { copy(r[4:8], r[0:4]) }, "given twice"},
		{"rank=numNodes", func(r []byte) { le.PutUint32(r[8:], 4) }, "names node 4"},
		{"rank=0xffffffff", func(r []byte) { le.PutUint32(r[0:], 0xFFFFFFFF) }, "names node"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev, err := BuildMem(sampleGraph(t))
			if err != nil {
				t.Fatal(err)
			}
			clean, err := OpenOptions(dev, 0.3, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rewritePage(t, dev, clean.hdr.rankFirst, c.mutate)
			grew, err := openAllocs(dev)
			if err == nil || !strings.Contains(err.Error(), "rank table") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Open error = %v, want a rank-table error saying %q", err, c.want)
			}
			if errors.Is(err, ErrChecksum) {
				t.Errorf("Open error = %v: the checksum slot was resealed, validation must catch it", err)
			}
			if grew > 8<<20 {
				t.Errorf("Open allocated %d MiB", grew>>20)
			}
		})
	}
}

// The data file keeps each facility record between the previous adjacency
// record and the first adjacency record that references it, and the
// adjacency records in node-id (rank) order, back to back.
func TestFacilityRecordsPrecedeFirstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(t, rng, trial%3)
		n := openNetwork(t, g, 0.3)
		pos := func(packed uint64) int64 {
			r := UnpackRef(packed)
			return int64(r.Page)*PageSize + int64(r.Off)
		}
		prevEnd := int64(n.hdr.dataFirst) * PageSize
		written := make(map[uint64]bool) // facility records already met
		for r := 0; r < g.NumNodes(); r++ {
			packed, ok, err := n.adjTree.Lookup(uint64(r))
			if err != nil || !ok {
				t.Fatalf("trial %d: rank %d: lookup ok=%v err=%v", trial, r, ok, err)
			}
			start := pos(packed)
			entries, err := n.Adjacency(graph.NodeID(r))
			if err != nil {
				t.Fatal(err)
			}
			gap := start - prevEnd // bytes of facility records before this one
			for _, e := range entries {
				if e.FacRef == graph.NoFacRef || written[e.FacRef] {
					continue
				}
				written[e.FacRef] = true
				if fp := pos(e.FacRef); fp < prevEnd || fp+int64(e.FacCount*facSize) > start {
					t.Fatalf("trial %d: edge %d's facility record at %d, outside [%d, %d) before its first reference (rank %d)",
						trial, e.Edge, fp, prevEnd, start, r)
				}
				gap -= int64(e.FacCount * facSize)
			}
			if gap != 0 {
				t.Fatalf("trial %d: rank %d: %d unexplained bytes before its adjacency record", trial, r, gap)
			}
			prevEnd = start + 2 + int64(len(entries)*(arcFixed+8*g.D()))
		}
		if len(written) == 0 {
			t.Fatalf("trial %d: no facility record met", trial)
		}
	}
}

// A buffer fraction that is NaN, infinite or negative is refused at Open: it
// used to convert to a capacity of 0 and serve with caching silently off.
// 0 (the paper's 0 % buffer) and fractions above 1 (every page) still open.
func TestOpenRejectsBadBufferFraction(t *testing.T) {
	dev, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, -1e-300} {
		if _, err := OpenOptions(dev, frac, PoolOptions{}); err == nil || !strings.Contains(err.Error(), "buffer fraction") {
			t.Errorf("OpenOptions(buffer %v): error %v, want one naming the buffer fraction", frac, err)
		}
	}
	for _, c := range []struct {
		frac float64
		cap  int
	}{{0, 0}, {1.5, dev.NumPages()}, {1e300, dev.NumPages()}} {
		n, err := OpenOptions(dev, c.frac, PoolOptions{})
		if err != nil {
			t.Fatalf("OpenOptions(buffer %v): %v", c.frac, err)
		}
		if got := n.Pool().Capacity(); got != c.cap {
			t.Errorf("OpenOptions(buffer %v): pool capacity %d, want %d", c.frac, got, c.cap)
		}
		verifyAgainstGraph(t, sampleGraph(t), n)
	}
}
