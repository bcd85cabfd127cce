package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mcn/internal/gen"
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

// generatedImages pins the SHA-256 of the images BuildMem writes for two
// networks beyond goldenGraph: the one gen.MakeInstance gives for 4 000
// nodes, 800 facilities, d = 4 and seed 3 (201 pages), of the generator's
// shape, whose records span pages, whose trees have inner nodes and whose
// tables take several pages each, where goldenGraph fits each on one; and
// the network without nodes (8 pages), whose tables are empty. Like
// goldenPageCRCs they change only with the byte layout.
var generatedImages = []struct {
	name   string
	graph  func(t *testing.T) *graph.Graph
	sha256 string
}{
	{"gen 4000/800/d=4/seed 3", func(t *testing.T) *graph.Graph {
		inst, err := gen.MakeInstance(gen.InstanceConfig{Nodes: 4000, Facilities: 800, D: 4, Queries: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return inst.Graph
	}, "8b91127df7521cf3e809db5af292f57a8d49ec832a6157a2fcec29290e760394"},
	{"no nodes", func(t *testing.T) *graph.Graph {
		g, err := graph.NewBuilder(2, false).Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, "8cee03dffeb652403233793e04ff4c0f77172ec14dd30af301a0a965cea5a01c"},
}

func TestGeneratedDatabaseGolden(t *testing.T) {
	for _, c := range generatedImages {
		g := c.graph(t)
		// BuildMem encodes and checksums in the MemDevice's own pages; a
		// device that wraps one is not a MemDevice, so its build goes
		// through Alloc, WritePage and ReadPage alone. Both must write the
		// golden bytes.
		wrapped := struct{ *MemDevice }{NewMemDevice()}
		if _, err := BuildIndexed(g, wrapped); err != nil {
			t.Fatal(err)
		}
		dev, err := BuildMem(g)
		if err != nil {
			t.Fatal(err)
		}
		for path, dev := range map[string]*MemDevice{"BuildMem": dev, "through the interface": wrapped.MemDevice} {
			h := sha256.New()
			if _, err := dev.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
				t.Errorf("%s, %s: the image hashes to %s, want %s (%d pages)", c.name, path, got, c.sha256, dev.NumPages())
			}
		}
	}
}
