package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/index"
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
	n, err := Open(dev, frac)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return n
}

// verifyAgainstGraph checks that every network read agrees with the
// in-memory graph.
func verifyAgainstGraph(t *testing.T, g *graph.Graph, n *Network) {
	t.Helper()
	if n.D() != g.D() || n.Directed() != g.Directed() {
		t.Fatalf("header mismatch: d=%d/%d directed=%v/%v", n.D(), g.D(), n.Directed(), g.Directed())
	}
	if n.NumNodes() != g.NumNodes() || n.NumEdges() != g.NumEdges() || n.NumFacilities() != g.NumFacilities() {
		t.Fatalf("counts mismatch")
	}
	for v := 0; v < g.NumNodes(); v++ {
		arcs := g.Arcs(graph.NodeID(v))
		entries, err := n.Adjacency(graph.NodeID(v))
		if err != nil {
			t.Fatalf("Adjacency(%d): %v", v, err)
		}
		if len(entries) != len(arcs) {
			t.Fatalf("node %d: %d entries, want %d", v, len(entries), len(arcs))
		}
		for i, a := range arcs {
			e := entries[i]
			if e.Neighbor != a.Neighbor || e.Edge != a.Edge || e.Forward != a.Forward {
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
		if info.U != want.U || info.V != want.V || !info.W.Equal(want.W) {
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
	b.AddNodes(3)
	e0 := b.AddEdge(0, 1, vec.Of(1, 2, 3))
	b.AddEdge(1, 2, vec.Of(4, 5, 6))
	b.AddFacility(e0, 0.4)
	g := b.MustBuild()
	verifyAgainstGraph(t, g, openNetwork(t, g, 0.5))
}

func TestNetworkRandomizedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		d := 1 + rng.Intn(5)
		nn := 2 + rng.Intn(120)
		b := graph.NewBuilder(d, rng.Intn(2) == 0)
		b.AddNodes(nn)
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
		nf := rng.Intn(200)
		for i := 0; i < nf; i++ {
			b.AddFacility(graph.EdgeID(rng.Intn(ne)), rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		verifyAgainstGraph(t, g, openNetwork(t, g, 0.3))
	}
}

// A single edge with thousands of facilities forces its facility record to
// span multiple pages.
func TestNetworkHugeFacilityRecord(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddNodes(2)
	e := b.AddEdge(0, 1, vec.Of(1, 1))
	const nf = 2000 // 2000 × 12 bytes ≈ 6 pages
	for i := 0; i < nf; i++ {
		b.AddFacility(e, float64(i)/float64(nf))
	}
	g := b.MustBuild()
	n := openNetwork(t, g, 0.5)
	entries, err := n.Adjacency(0)
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
	dev, err := CreateFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Build(g, dev); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	n, err := Open(ro, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGraph(t, g, n)
}

func TestOpenRejectsGarbage(t *testing.T) {
	dev := NewMemDevice()
	if _, err := Open(dev, 0.1); err == nil {
		t.Error("empty device opened")
	}
	if _, err := dev.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, 0.1); err == nil {
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

func TestAdjacencyOutOfRange(t *testing.T) {
	n := openNetwork(t, sampleGraph(t), 0.1)
	if _, err := n.Adjacency(graph.NodeID(999)); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// The persisted bounds table must round-trip exactly: the loaded index is
// byte-identical to one rebuilt from the in-memory graph.
func TestNetworkBoundsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		d := 1 + rng.Intn(4)
		nn := 2 + rng.Intn(80)
		b := graph.NewBuilder(d, rng.Intn(2) == 0)
		b.AddNodes(nn)
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
		want := index.FromGraph(g)
		if got.D() != want.D() || got.NumNodes() != want.NumNodes() {
			t.Fatalf("bounds shape %d×%d, want %d×%d", got.D(), got.NumNodes(), want.D(), want.NumNodes())
		}
		gd, wd := got.Data(), want.Data()
		for i := range wd {
			if gd[i] != wd[i] && !(math.IsInf(gd[i], 1) && math.IsInf(wd[i], 1)) {
				t.Fatalf("bounds[%d] = %v, want %v", i, gd[i], wd[i])
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
	for _, v := range []uint16{1, 2, 3, version + 1} {
		binary.LittleEndian.PutUint16(buf[4:], v)
		if err := dev.WritePage(0, buf); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dev, 0.3)
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

// The header page is the one page no checksum covers. Overwriting any of its
// sizes or page ids with an out-of-range value must make Open fail cleanly —
// not panic, and not allocate a table sized from the damaged value.
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
		name    string
		apply   func(buf []byte)
		mustErr bool
	}
	var cases []damage
	for _, f := range []struct {
		name string
		off  int
	}{
		{"adjTreeRoot", 24}, {"facTreeRoot", 28}, {"edgeTreeRoot", 32},
		{"adjFileFirst", 36}, {"facFileFirst", 40},
		{"checksumFirst", 44}, {"checksumPages", 48}, {"boundsFirst", 52},
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
		// In-range sizes that disagree with the tables are caught later, by
		// the bounds-table arity check or not at all; Open must just not
		// panic on them.
		damage{"d=numPages", func(buf []byte) { le.PutUint16(buf[6:], uint16(numPages)) }, false},
		damage{"numNodes=numPages", func(buf []byte) { le.PutUint32(buf[12:], numPages) }, false},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			page0 := append([]byte(nil), orig...)
			c.apply(page0)
			dev := &patchedHeader{Device: clean, page0: page0}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Open(dev, 0.3)
			runtime.ReadMemStats(&after)
			if c.mustErr && err == nil {
				t.Error("Open accepted the damaged header")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
				t.Errorf("Open allocated %d MiB on a %d-page database", grew>>20, numPages)
			}
		})
	}
}
