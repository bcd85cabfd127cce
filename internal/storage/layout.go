package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"mcn/internal/graph"
	"mcn/internal/index"
)

// Database file layout (all offsets in pages):
//
//	page 0            header
//	facility file     one record per edge that carries facilities
//	adjacency file    one record per node
//	adjacency tree    B+-tree: node id → packed Ref of its adjacency record
//	facility tree     B+-tree: facility id → edge id
//	edge tree         B+-tree: edge id → U end-node id
//	bounds table      pruning index, d × numNodes f64
//	checksum table    one 8-byte slot per page above (header excluded)
//
// Adjacency record:  count u16, then per arc:
//
//	neighbor u32, edge u32, flags u8 (bit0 = forward), facCount u16,
//	facRef u64 (NoFacRef when the edge has no facilities), d × cost f64
//
// Facility record (per edge): facCount × { facility u32, T f64 }.
//
// The pruning-index bounds table follows the trees: d × numNodes f64 values,
// criterion-major (the internal/index layout), the exact distance from each
// node to its nearest facility per cost type. It is loaded once at Open.
//
// The checksum table comes last: one 8-byte slot per data/index page (pages
// 1..checksumPages, i.e. everything written before the table, the bounds
// table included; the header page is excluded because it is read before the
// table is known, and the table's own pages are excluded because they are
// read once at Open, directly from the device). A slot holds the page's
// CRC-32C (Castagnoli) in its low 32 bits, the rest zero. CRC-32C because
// hash/crc32 computes it with the SSE4.2 / ARMv8 CRC instructions, so
// verifying a page costs a fraction of reading it; the slot stays 8 bytes
// wide so the table — and with it the page count every buffer-size
// percentage and page-access figure is measured against — is the size it has
// always been. OpenWithPool loads the table into memory and hands it to the
// buffer pool, which verifies every page it reads.
//
// This is layout version 4, the only one Open accepts: a database written by
// an earlier version is regenerated with mcngen, not migrated.
const (
	magic   = 0x4D434E31 // "MCN1"
	version = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageChecksum returns the CRC-32C of a page's content, the checksum stored
// in the database's checksum table.
func PageChecksum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

type header struct {
	d             int
	directed      bool
	numNodes      int
	numEdges      int
	numFacs       int
	adjTreeRoot   PageID
	facTreeRoot   PageID
	edgeTreeRoot  PageID
	adjFileFirst  PageID
	facFileFirst  PageID
	checksumFirst PageID // first page of the checksum table
	checksumPages int    // pages covered by the table: ids 1..checksumPages
	boundsFirst   PageID // first page of the pruning-bounds table
}

func (h *header) encode() []byte {
	buf := make([]byte, PageSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], magic)
	le.PutUint16(buf[4:], version)
	le.PutUint16(buf[6:], uint16(h.d))
	if h.directed {
		buf[8] = 1
	}
	le.PutUint32(buf[12:], uint32(h.numNodes))
	le.PutUint32(buf[16:], uint32(h.numEdges))
	le.PutUint32(buf[20:], uint32(h.numFacs))
	le.PutUint32(buf[24:], uint32(h.adjTreeRoot))
	le.PutUint32(buf[28:], uint32(h.facTreeRoot))
	le.PutUint32(buf[32:], uint32(h.edgeTreeRoot))
	le.PutUint32(buf[36:], uint32(h.adjFileFirst))
	le.PutUint32(buf[40:], uint32(h.facFileFirst))
	le.PutUint32(buf[44:], uint32(h.checksumFirst))
	le.PutUint32(buf[48:], uint32(h.checksumPages))
	le.PutUint32(buf[52:], uint32(h.boundsFirst))
	return buf
}

func decodeHeader(buf []byte) (*header, error) {
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != magic {
		return nil, fmt.Errorf("storage: not an MCN database (bad magic)")
	}
	if v := le.Uint16(buf[4:]); v != version {
		return nil, fmt.Errorf("storage: database layout version %d, this build reads version %d: regenerate the database with mcngen", v, version)
	}
	return &header{
		d:             int(le.Uint16(buf[6:])),
		directed:      buf[8] == 1,
		numNodes:      int(le.Uint32(buf[12:])),
		numEdges:      int(le.Uint32(buf[16:])),
		numFacs:       int(le.Uint32(buf[20:])),
		adjTreeRoot:   PageID(le.Uint32(buf[24:])),
		facTreeRoot:   PageID(le.Uint32(buf[28:])),
		edgeTreeRoot:  PageID(le.Uint32(buf[32:])),
		adjFileFirst:  PageID(le.Uint32(buf[36:])),
		facFileFirst:  PageID(le.Uint32(buf[40:])),
		checksumFirst: PageID(le.Uint32(buf[44:])),
		checksumPages: int(le.Uint32(buf[48:])),
		boundsFirst:   PageID(le.Uint32(buf[52:])),
	}, nil
}

// tablePages is the number of pages a table of n u64 values occupies.
func tablePages(n uint64) uint64 { return (n*8 + PageSize - 1) / PageSize }

// validate checks every size and page id of the header against the device's
// page count. The header page is the one page no checksum covers, and
// OpenWithPool sizes its tables from it, so a damaged or hostile header must
// be refused here, before anything it names is allocated or read.
func (h *header) validate(numPages int) error {
	pages := uint64(numPages)
	if h.d < 1 {
		return fmt.Errorf("storage: header: %d cost types", h.d)
	}
	for _, p := range []struct {
		name string
		id   PageID
	}{
		{"adjacency tree root", h.adjTreeRoot},
		{"facility tree root", h.facTreeRoot},
		{"edge tree root", h.edgeTreeRoot},
		{"adjacency file", h.adjFileFirst},
		{"facility file", h.facFileFirst},
		{"checksum table", h.checksumFirst},
		{"bounds table", h.boundsFirst},
	} {
		if uint64(p.id) >= pages {
			return fmt.Errorf("storage: header: %s at page %d, device has %d pages", p.name, p.id, numPages)
		}
	}
	if uint64(h.checksumPages) >= pages {
		return fmt.Errorf("storage: header: checksums cover %d pages, device has %d", h.checksumPages, numPages)
	}
	if end := uint64(h.checksumFirst) + tablePages(uint64(h.checksumPages)); end > pages {
		return fmt.Errorf("storage: header: checksum table ends at page %d, device has %d pages", end, numPages)
	}
	// d < 2^16 and numNodes < 2^32, so the product cannot overflow.
	if end := uint64(h.boundsFirst) + tablePages(uint64(h.d)*uint64(h.numNodes)); end > pages {
		return fmt.Errorf("storage: header: bounds table ends at page %d, device has %d pages", end, numPages)
	}
	return nil
}

// Build writes the database for g onto dev, which must be empty. The
// pruning-bounds table is computed and embedded as part of the build; use
// BuildIndexed to also receive the computed index (mcngen reports its size
// and build time).
func Build(g *graph.Graph, dev Device) error {
	_, err := BuildIndexed(g, dev)
	return err
}

// BuildIndexed is Build, returning the pruning index it computed and
// persisted.
func BuildIndexed(g *graph.Graph, dev Device) (*index.Bounds, error) {
	if dev.NumPages() != 0 {
		return nil, fmt.Errorf("storage: device not empty (%d pages)", dev.NumPages())
	}
	hdrPage, err := dev.Alloc()
	if err != nil {
		return nil, err
	}
	if hdrPage != 0 {
		return nil, fmt.Errorf("storage: header page allocated at %d", hdrPage)
	}
	h := &header{
		d:        g.D(),
		directed: g.Directed(),
		numNodes: g.NumNodes(),
		numEdges: g.NumEdges(),
		numFacs:  g.NumFacilities(),
	}

	// Facility file: one record per edge with facilities.
	facRefs := make([]uint64, g.NumEdges())
	fw := newPageWriter(dev)
	first := true
	for e := 0; e < g.NumEdges(); e++ {
		facs := g.EdgeFacilities(graph.EdgeID(e))
		if len(facs) == 0 {
			facRefs[e] = graph.NoFacRef
			continue
		}
		ref, err := fw.pos()
		if err != nil {
			return nil, err
		}
		if first {
			h.facFileFirst = ref.Page
			first = false
		}
		facRefs[e] = ref.Pack()
		for _, p := range facs {
			if err := fw.writeU32(uint32(p)); err != nil {
				return nil, err
			}
			if err := fw.writeF64(g.Facility(p).T); err != nil {
				return nil, err
			}
		}
	}
	if err := fw.close(); err != nil {
		return nil, err
	}

	// Adjacency file: one record per node.
	adjRefs := make([]uint64, g.NumNodes())
	aw := newPageWriter(dev)
	for v := 0; v < g.NumNodes(); v++ {
		ref, err := aw.pos()
		if err != nil {
			return nil, err
		}
		if v == 0 {
			h.adjFileFirst = ref.Page
		}
		adjRefs[v] = ref.Pack()
		arcs := g.Arcs(graph.NodeID(v))
		if err := aw.writeU16(uint16(len(arcs))); err != nil {
			return nil, err
		}
		for _, a := range arcs {
			edge := g.Edge(a.Edge)
			if err := aw.writeU32(uint32(a.Neighbor)); err != nil {
				return nil, err
			}
			if err := aw.writeU32(uint32(a.Edge)); err != nil {
				return nil, err
			}
			var flags byte
			if a.Forward {
				flags |= 1
			}
			if err := aw.write([]byte{flags}); err != nil {
				return nil, err
			}
			if err := aw.writeU16(uint16(len(g.EdgeFacilities(a.Edge)))); err != nil {
				return nil, err
			}
			if err := aw.writeU64(facRefs[a.Edge]); err != nil {
				return nil, err
			}
			for _, w := range edge.W {
				if err := aw.writeF64(w); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := aw.close(); err != nil {
		return nil, err
	}

	// Indexes.
	nodeKeys := make([]uint64, g.NumNodes())
	for v := range nodeKeys {
		nodeKeys[v] = uint64(v)
	}
	if h.adjTreeRoot, err = BuildBTree(dev, nodeKeys, adjRefs); err != nil {
		return nil, fmt.Errorf("storage: adjacency tree: %w", err)
	}

	facKeys := make([]uint64, g.NumFacilities())
	facVals := make([]uint64, g.NumFacilities())
	for p := range facKeys {
		facKeys[p] = uint64(p)
		facVals[p] = uint64(g.Facility(graph.FacilityID(p)).Edge)
	}
	if h.facTreeRoot, err = BuildBTree(dev, facKeys, facVals); err != nil {
		return nil, fmt.Errorf("storage: facility tree: %w", err)
	}

	edgeKeys := make([]uint64, g.NumEdges())
	edgeVals := make([]uint64, g.NumEdges())
	for e := range edgeKeys {
		edgeKeys[e] = uint64(e)
		edgeVals[e] = uint64(g.Edge(graph.EdgeID(e)).U)
	}
	if h.edgeTreeRoot, err = BuildBTree(dev, edgeKeys, edgeVals); err != nil {
		return nil, fmt.Errorf("storage: edge tree: %w", err)
	}

	// Pruning-bounds table: the per-criterion nearest-facility distances,
	// written before the checksum table so its pages are covered by the
	// checksums.
	bounds := index.FromGraph(g)
	bw := newPageWriter(dev)
	bref, err := bw.pos()
	if err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}
	h.boundsFirst = bref.Page
	for _, v := range bounds.Data() {
		if err := bw.writeF64(v); err != nil {
			return nil, fmt.Errorf("storage: bounds table: %w", err)
		}
	}
	if err := bw.close(); err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}

	// Checksum table: one slot per page written so far (1..n-1; the header
	// page is written last, after the table's location is known, and is
	// excluded — see the layout comment).
	n := dev.NumPages()
	h.checksumPages = n - 1
	cw := newPageWriter(dev)
	ref, err := cw.pos()
	if err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}
	h.checksumFirst = ref.Page
	page := make([]byte, PageSize)
	for p := 1; p < n; p++ {
		if err := dev.ReadPage(PageID(p), page); err != nil {
			return nil, fmt.Errorf("storage: checksum table: %w", err)
		}
		if err := cw.writeU64(uint64(PageChecksum(page))); err != nil {
			return nil, fmt.Errorf("storage: checksum table: %w", err)
		}
	}
	if err := cw.close(); err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}

	return bounds, dev.WritePage(0, h.encode())
}

// BuildMem builds the database for g on a fresh in-memory device.
func BuildMem(g *graph.Graph) (*MemDevice, error) {
	dev := NewMemDevice()
	if err := Build(g, dev); err != nil {
		return nil, err
	}
	return dev, nil
}
