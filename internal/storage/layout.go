package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"mcn/internal/graph"
	"mcn/internal/index"
)

// Database file layout (all offsets in pages):
//
//	page 0            header
//	data file         one adjacency record per node, in locality order; each
//	                  edge's facility record immediately precedes the first
//	                  adjacency record that points at it
//	adjacency tree    B+-tree: node rank → packed Ref of its adjacency record
//	facility tree     B+-tree: facility id → edge id
//	edge tree         B+-tree: edge id → U end-node id
//	bounds table      pruning index, d × numNodes f64
//	rank table        numNodes u32: node id → rank in the locality order
//	checksum table    one 8-byte slot per page above (header excluded)
//
// Adjacency record:  count u16, then per arc:
//
//	neighbor u32, edge u32, flags u8 (bit0 = forward), facCount u16,
//	facRef u64 (NoFacRef when the edge has no facilities), d × cost f64
//
// Facility record (per edge): facCount × { facility u32, T f64 }.
//
// The locality order is graph.LocalityOrder, the Hilbert-curve order of the
// node coordinates that also numbers flat.Source's nodes: a Dijkstra
// wavefront grows through neighbouring space, so the records one expansion
// reads, and the adjacency-tree leaves that locate them, lie on few pages.
// In the database, node, edge and facility ids are not renumbered;
// the rank table translates a node id into the adjacency tree's key, and
// every record still names ids. A facility record sits next to the record
// that first reaches its edge, so the facility read that follows an
// adjacency read usually hits the same page.
//
// The pruning-index bounds table follows the trees: d × numNodes f64 values,
// criterion-major (the internal/index layout), the exact distance from each
// node to its nearest facility per cost type. It and the rank table are
// loaded once at Open, directly from the device and verified against the
// checksum table; Open refuses a rank table that is not a permutation.
//
// The checksum table comes last: one 8-byte slot per data/index page (pages
// 1..checksumPages, i.e. everything written before the table, the bounds and
// rank tables included; the table's own pages are excluded because they are
// read once at Open, directly from the device). A slot holds the page's
// CRC-32C (Castagnoli) in its low 32 bits, the rest zero. CRC-32C because
// hash/crc32 computes it with the SSE4.2 / ARMv8 CRC instructions, so
// verifying a page costs a fraction of reading it; the slot stays 8 bytes
// wide so the table — and with it the page count every buffer-size
// percentage and page-access figure is measured against — keeps the size it
// had under earlier layouts. OpenWithPool loads the table into memory and
// hands it to the buffer pool, which verifies every page it reads.
//
// The header page is read before the table is known, so it carries its own
// CRC-32C: the last field holds the checksum of every header byte before it,
// and Open verifies it before trusting any size or page id the header names.
//
// This is layout version 5, the only one Open accepts: a database written by
// an earlier version is regenerated with mcngen, not migrated.
const (
	magic   = 0x4D434E31 // "MCN1"
	version = 5

	headerCRCOff = 56 // the header's CRC-32C covers bytes [0, headerCRCOff)
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
	dataFirst     PageID // first page of the data file
	checksumFirst PageID // first page of the checksum table
	checksumPages int    // pages covered by the table: ids 1..checksumPages
	boundsFirst   PageID // first page of the pruning-bounds table
	rankFirst     PageID // first page of the rank table
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
	le.PutUint32(buf[36:], uint32(h.dataFirst))
	le.PutUint32(buf[40:], uint32(h.checksumFirst))
	le.PutUint32(buf[44:], uint32(h.checksumPages))
	le.PutUint32(buf[48:], uint32(h.boundsFirst))
	le.PutUint32(buf[52:], uint32(h.rankFirst))
	le.PutUint32(buf[headerCRCOff:], PageChecksum(buf[:headerCRCOff]))
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
	if le.Uint32(buf[headerCRCOff:]) != PageChecksum(buf[:headerCRCOff]) {
		return nil, fmt.Errorf("storage: header page: %w", ErrChecksum)
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
		dataFirst:     PageID(le.Uint32(buf[36:])),
		checksumFirst: PageID(le.Uint32(buf[40:])),
		checksumPages: int(le.Uint32(buf[44:])),
		boundsFirst:   PageID(le.Uint32(buf[48:])),
		rankFirst:     PageID(le.Uint32(buf[52:])),
	}, nil
}

// tablePages is the number of pages a table of n values of size bytes
// occupies.
func tablePages(n, size uint64) uint64 { return (n*size + PageSize - 1) / PageSize }

// validate checks every size and page id of the header against the device's
// page count. OpenWithPool sizes its tables from the header, so a header
// that passes its checksum but names impossible sizes — a hostile one, or
// one written by a broken build — must be refused here, before anything it
// names is allocated or read.
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
		{"data file", h.dataFirst},
		{"checksum table", h.checksumFirst},
		{"bounds table", h.boundsFirst},
		{"rank table", h.rankFirst},
	} {
		if p.id == 0 || uint64(p.id) >= pages {
			return fmt.Errorf("storage: header: %s at page %d, device has %d pages", p.name, p.id, numPages)
		}
	}
	if uint64(h.checksumPages) >= pages {
		return fmt.Errorf("storage: header: checksums cover %d pages, device has %d", h.checksumPages, numPages)
	}
	if end := uint64(h.checksumFirst) + tablePages(uint64(h.checksumPages), 8); end > pages {
		return fmt.Errorf("storage: header: checksum table ends at page %d, device has %d pages", end, numPages)
	}
	// The bounds and rank tables are verified against the checksum table as
	// they load, so they must lie inside the pages it covers. d < 2^16 and
	// numNodes < 2^32, so no size below can overflow.
	covered := uint64(h.checksumPages) + 1
	for _, t := range []struct {
		name  string
		first PageID
		n     uint64
		size  uint64
	}{
		{"bounds table", h.boundsFirst, uint64(h.d) * uint64(h.numNodes), 8},
		{"rank table", h.rankFirst, uint64(h.numNodes), 4},
	} {
		if end := uint64(t.first) + tablePages(t.n, t.size); end > covered {
			return fmt.Errorf("storage: header: %s ends at page %d, checksums cover pages 1..%d", t.name, end, h.checksumPages)
		}
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
	if g.D() > math.MaxUint16 {
		return nil, fmt.Errorf("storage: %d cost types, the header holds at most %d", g.D(), math.MaxUint16)
	}
	h := &header{
		d:        g.D(),
		directed: g.Directed(),
		numNodes: g.NumNodes(),
		numEdges: g.NumEdges(),
		numFacs:  g.NumFacilities(),
	}

	order := graph.LocalityOrder(g)
	var adjRefs []uint64
	if h.dataFirst, adjRefs, err = writeData(g, dev, order); err != nil {
		return nil, fmt.Errorf("storage: data file: %w", err)
	}

	// Indexes. The adjacency tree is keyed by rank, so its leaves follow the
	// data file's order.
	ranks := make([]uint64, len(order))
	for r := range ranks {
		ranks[r] = uint64(r)
	}
	if h.adjTreeRoot, err = BuildBTree(dev, ranks, adjRefs); err != nil {
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

	// Pruning-bounds and rank tables, written before the checksum table so
	// their pages are covered by the checksums.
	bounds := index.FromGraph(g)
	if h.boundsFirst, err = writeTable(dev, len(bounds.Data()), func(w *pageWriter, i int) error {
		return w.writeF64(bounds.Data()[i])
	}); err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}
	rank := make([]uint32, len(order))
	for r, v := range order {
		rank[v] = uint32(r)
	}
	if h.rankFirst, err = writeTable(dev, len(rank), func(w *pageWriter, v int) error {
		return w.writeU32(rank[v])
	}); err != nil {
		return nil, fmt.Errorf("storage: rank table: %w", err)
	}

	// Checksum table: one slot per page written so far (1..n-1; the header
	// page is written last, after the table's location is known, and carries
	// its own checksum — see the layout comment).
	n := dev.NumPages()
	h.checksumPages = n - 1
	page := make([]byte, PageSize)
	if h.checksumFirst, err = writeTable(dev, n-1, func(w *pageWriter, i int) error {
		if err := dev.ReadPage(PageID(i+1), page); err != nil {
			return err
		}
		return w.writeU64(uint64(PageChecksum(page)))
	}); err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}

	return bounds, dev.WritePage(0, h.encode())
}

// writeData writes the data file: the adjacency record of every node in
// order, each preceded by the facility records of the edges it is the first
// to reference. It returns the file's first page and the packed Ref of each
// adjacency record, indexed by rank.
func writeData(g *graph.Graph, dev Device, order []graph.NodeID) (PageID, []uint64, error) {
	le := binary.LittleEndian
	w := newPageWriter(dev)
	first, err := w.pos()
	if err != nil {
		return 0, nil, err
	}
	facRefs := make([]uint64, g.NumEdges())
	for e := range facRefs {
		facRefs[e] = graph.NoFacRef // also marks a facility record not yet written
	}
	adjRefs := make([]uint64, len(order))
	var rec []byte
	for r, v := range order {
		arcs := g.Arcs(v)
		for _, a := range arcs {
			facs := g.EdgeFacilities(a.Edge)
			if len(facs) == 0 || facRefs[a.Edge] != graph.NoFacRef {
				continue
			}
			if len(facs) > math.MaxUint16 {
				return 0, nil, fmt.Errorf("edge %d has %d facilities, a record holds at most %d", a.Edge, len(facs), math.MaxUint16)
			}
			ref, err := w.pos()
			if err != nil {
				return 0, nil, err
			}
			facRefs[a.Edge] = ref.Pack()
			rec = rec[:0]
			for _, p := range facs {
				rec = le.AppendUint32(rec, uint32(p))
				rec = le.AppendUint64(rec, math.Float64bits(g.Facility(p).T))
			}
			if err := w.write(rec); err != nil {
				return 0, nil, err
			}
		}
		ref, err := w.pos()
		if err != nil {
			return 0, nil, err
		}
		adjRefs[r] = ref.Pack()
		if len(arcs) > math.MaxUint16 {
			return 0, nil, fmt.Errorf("node %d has %d arcs, a record holds at most %d", v, len(arcs), math.MaxUint16)
		}
		rec = le.AppendUint16(rec[:0], uint16(len(arcs)))
		for _, a := range arcs {
			var flags byte
			if a.Forward {
				flags |= 1
			}
			rec = le.AppendUint32(rec, uint32(a.Neighbor))
			rec = le.AppendUint32(rec, uint32(a.Edge))
			rec = append(rec, flags)
			rec = le.AppendUint16(rec, uint16(len(g.EdgeFacilities(a.Edge))))
			rec = le.AppendUint64(rec, facRefs[a.Edge])
			for _, c := range g.Edge(a.Edge).W {
				rec = le.AppendUint64(rec, math.Float64bits(c))
			}
		}
		if err := w.write(rec); err != nil {
			return 0, nil, err
		}
	}
	return first.Page, adjRefs, w.close()
}

// writeTable writes a table of n fixed-size values, value i by put(w, i),
// starting on a fresh page, and returns that page.
func writeTable(dev Device, n int, put func(w *pageWriter, i int) error) (PageID, error) {
	w := newPageWriter(dev)
	ref, err := w.pos()
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if err := put(w, i); err != nil {
			return 0, err
		}
	}
	return ref.Page, w.close()
}

// BuildMem builds the database for g on a fresh in-memory device.
func BuildMem(g *graph.Graph) (*MemDevice, error) {
	dev := NewMemDevice()
	if err := Build(g, dev); err != nil {
		return nil, err
	}
	return dev, nil
}
