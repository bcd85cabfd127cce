package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mcn/internal/graph"
	"mcn/internal/vec"
)

// goldenGraph is a fixed 5×5 grid network whose node ids are scrambled
// against their positions (node k sits at cell (7k+3) mod 25), so the
// layout's locality order differs from id order; a third of its edges carry
// facilities, some two.
func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const side = 5
	b := graph.NewBuilder(2, false)
	at := make([]graph.NodeID, side*side) // cell → node id
	for k := range at {
		cell := (7*k + 3) % len(at)
		at[cell] = b.AddNode(float64(cell%side), float64(cell/side))
	}
	var edges []graph.EdgeID
	for cell := range at {
		x, y := cell%side, cell/side
		if x+1 < side {
			edges = append(edges, b.AddEdge(at[cell], at[cell+1], vec.Of(float64(1+cell%3), float64(2+cell%4))))
		}
		if y+1 < side {
			edges = append(edges, b.AddEdge(at[cell], at[cell+side], vec.Of(float64(2+cell%4), float64(1+cell%3))))
		}
	}
	for i, e := range edges {
		if i%3 == 0 {
			b.AddFacility(e, 0.25)
		}
		if i%9 == 0 {
			b.AddFacility(e, 0.75)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenPageCRCs is the CRC-32C of every page BuildMem writes for
// goldenGraph, header first. Any change to the byte layout — record order,
// record format, tree shape, table order, header fields — changes some of
// them, so a layout change shows up here as a reviewed diff. The header's
// entry is the checksum the header carries, over every field: the CRC of a
// page that ends in its own CRC is the same for every header. To regenerate
// after an intended change, run
//
//	go test ./internal/storage -run TestDatabaseGolden
//
// and paste the table the failure prints.
var goldenPageCRCs = []uint32{
	0x96232a1a, // header
	0x1b8b8a77, // data file
	0x625edf0c, // adjacency tree
	0x19326982, // facility tree
	0x968e4b45, // edge tree
	0x2a50447d, // bounds table
	0x8964ca44, // rank table
	0x559883d2, // checksum table
}

func TestDatabaseGolden(t *testing.T) {
	dev, err := BuildMem(goldenGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, dev.NumPages())
	page, page0 := make([]byte, PageSize), make([]byte, PageSize)
	if err := dev.ReadPage(0, page0); err != nil {
		t.Fatal(err)
	}
	for id := range got {
		if err := dev.ReadPage(PageID(id), page); err != nil {
			t.Fatal(err)
		}
		got[id] = PageChecksum(page)
	}
	got[0] = binary.LittleEndian.Uint32(page0[headerCRCOff:])
	if !slices.Equal(got, goldenPageCRCs) {
		var b strings.Builder
		for _, c := range got {
			fmt.Fprintf(&b, "\t%#08x,\n", c)
		}
		t.Errorf("page checksums of the golden database changed; if the layout change is intended, the new table is:\n%s", b.String())
	}
	// The database must also answer: a golden table of a broken build is
	// worth nothing.
	n, err := OpenOptions(dev, 0.5, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGraph(t, goldenGraph(t), n)
}
