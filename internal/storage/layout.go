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
//	data file         one adjacency record per node, in record-number order;
//	                  each edge's facility record immediately precedes the
//	                  first adjacency record that points at it
//	adjacency tree    B+-tree: node id → packed Ref of its adjacency record
//	facility tree     B+-tree: facility id → edge id
//	edge tree         B+-tree: edge id → U end-node id
//	bounds table      pruning index, d × numNodes f64
//	rank table        numNodes u32: rank (node id) → the graph's node id
//	checksum table    one 8-byte slot per page above (header excluded)
//
// Adjacency record:  count u16, then per arc:
//
//	neighbor u32, edge u32, flags u8 (bit0 = forward), facCount u16,
//	facRef u64 (NoFacRef when the edge has no facilities), d × cost f64
//
// Facility record (per edge): facCount × { facility u32, T f64 }.
//
// The database numbers nodes in its own order: a node's id is the number of
// its adjacency record, its rank in graph.LocalityOrder, the Hilbert-curve
// order of the node coordinates that also numbers flat.Source's nodes. A
// Dijkstra wavefront grows through neighbouring space, so the records one
// expansion reads, the adjacency-tree leaves that locate them and the
// expansion's per-node state indexed by node id all cluster. Adjacency
// records name neighbours, and the edge tree end-nodes, by that id; the
// adjacency tree is keyed by it; the bounds table is in it. Edge and
// facility ids are the graph's, and since answers name facilities, no node
// id leaves the database. The rank table maps each node id back to the
// graph's (graph.LocalityOrder itself); a query never reads it. A facility
// record sits next to the record that first reaches its edge, so the
// facility read that follows an adjacency read usually hits the same page.
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
// hands it to the buffer pool, which verifies every page it reads — on a
// FileDevice only the first read of each page in an open.
//
// The header page is read before the table is known, so it carries its own
// CRC-32C: the last field holds the checksum of every header byte before it,
// and Open verifies it before trusting any size or page id the header names.
//
// This is layout version 6, the only one Open accepts: a database written by
// an earlier version is regenerated with mcngen, not migrated.
const (
	magic   = 0x4D434E31 // "MCN1"
	version = 6

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
// persisted, in the database's node numbering. The index's passes run in
// that numbering, so the bounds table is written from it without a
// permutation; they run on their own goroutines while the records and
// trees are laid out, and every return waits for them.
//
// On a MemDevice every page is encoded in place, in the device's own
// memory, and checksummed there; any other device is written a page at a
// time through the Device interface. Both write the same bytes.
func BuildIndexed(g *graph.Graph, dev Device) (*index.Bounds, error) {
	if dev.NumPages() != 0 {
		return nil, fmt.Errorf("storage: device not empty (%d pages)", dev.NumPages())
	}
	if g.D() > math.MaxUint16 {
		return nil, fmt.Errorf("storage: %d cost types, the header holds at most %d", g.D(), math.MaxUint16)
	}
	// order[id] is the graph node the database numbers id; rank inverts it.
	order := graph.LocalityOrder(g)
	rank := make([]graph.NodeID, len(order))
	for id, v := range order {
		rank[v] = graph.NodeID(id)
	}
	var bounds *index.Bounds
	indexed := make(chan struct{})
	go func() {
		defer close(indexed)
		bounds, _ = index.FromCosts(g, rank, nil, nil) // fails only through an interrupt
	}()
	defer func() { <-indexed }()

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

	var adjRefs []uint64
	if h.dataFirst, adjRefs, err = writeData(g, dev, order, rank); err != nil {
		return nil, fmt.Errorf("storage: data file: %w", err)
	}

	// Indexes, all keyed by dense ids: one run of ids serves as every
	// tree's keys, and one buffer as the facility and edge trees' values
	// (BuildBTree keeps neither).
	ids := make([]uint64, max(len(order), g.NumFacilities(), g.NumEdges()))
	for id := range ids {
		ids[id] = uint64(id)
	}
	if h.adjTreeRoot, err = BuildBTree(dev, ids[:len(order)], adjRefs); err != nil {
		return nil, fmt.Errorf("storage: adjacency tree: %w", err)
	}

	vals := make([]uint64, max(g.NumFacilities(), g.NumEdges()))
	facVals := vals[:g.NumFacilities()]
	for p := range facVals {
		facVals[p] = uint64(g.Facility(graph.FacilityID(p)).Edge)
	}
	if h.facTreeRoot, err = BuildBTree(dev, ids[:len(facVals)], facVals); err != nil {
		return nil, fmt.Errorf("storage: facility tree: %w", err)
	}

	edgeVals := vals[:g.NumEdges()]
	for e := range edgeVals {
		edgeVals[e] = uint64(rank[g.Edge(graph.EdgeID(e)).U])
	}
	if h.edgeTreeRoot, err = BuildBTree(dev, ids[:len(edgeVals)], edgeVals); err != nil {
		return nil, fmt.Errorf("storage: edge tree: %w", err)
	}

	// Every page written so far is final: checksum them while the index
	// may still be running (see the checksum table below).
	var crcs []uint32
	scratch := make([]byte, PageSize)
	sum := func() error {
		for id := len(crcs) + 1; id < dev.NumPages(); id++ {
			page, err := pageBytes(dev, PageID(id), scratch)
			if err != nil {
				return err
			}
			crcs = append(crcs, PageChecksum(page))
		}
		return nil
	}
	if err := sum(); err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}

	// Pruning-bounds and rank tables, written before the checksum table so
	// their pages are covered by the checksums. The bounds are
	// criterion-major, in the database's numbering already.
	le := binary.LittleEndian
	<-indexed
	n := len(order)
	data := bounds.Data()
	if h.boundsFirst, err = writeTable(dev, len(data), 8, func(b []byte, j int) error {
		for k := 0; k < len(b); k, j = k+8, j+1 {
			le.PutUint64(b[k:], math.Float64bits(data[j]))
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}
	if h.rankFirst, err = writeTable(dev, n, 4, func(b []byte, id int) error {
		for k := 0; k < len(b); k, id = k+4, id+1 {
			le.PutUint32(b[k:], uint32(order[id]))
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("storage: rank table: %w", err)
	}

	// Checksum table: one slot per page written so far (1..pages-1; the
	// header page is written last, after the table's location is known, and
	// carries its own checksum — see the layout comment).
	if err := sum(); err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}
	h.checksumPages = len(crcs)
	if h.checksumFirst, err = writeTable(dev, len(crcs), 8, func(b []byte, i int) error {
		for k := 0; k < len(b); k, i = k+8, i+1 {
			le.PutUint64(b[k:], uint64(crcs[i]))
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}

	return bounds, dev.WritePage(0, h.encode())
}

// pageBytes returns the bytes of page id of dev: on a MemDevice the
// device's own page, on any other device a copy read into scratch.
func pageBytes(dev Device, id PageID, scratch []byte) ([]byte, error) {
	if m, ok := dev.(*MemDevice); ok {
		p, err := m.lend(id)
		if err != nil {
			return nil, err
		}
		return p[:], nil
	}
	return scratch, dev.ReadPage(id, scratch)
}

// writeData writes the data file: the adjacency record of every graph node
// in order, each preceded by the facility records of the edges it is the
// first to reference, its neighbours renamed by rank. It returns the file's
// first page and the packed Ref of each adjacency record, indexed by node id
// (position in order).
func writeData(g *graph.Graph, dev Device, order, rank []graph.NodeID) (PageID, []uint64, error) {
	le := binary.LittleEndian
	w := newPageWriter(dev)
	first, err := w.pos()
	if err != nil {
		return 0, nil, err
	}
	// Per edge, what both its arcs carry, gathered in edge order so that an
	// arc reads one place, not the graph's edge, cost and facility lists:
	// fac[e] holds the facility count, taken once per facility, and the
	// record's ref, NoFacRef until the record is written; costs holds the
	// encoded cost vectors, 8d bytes an edge.
	type edgeFacs struct {
		ref   uint64
		count uint32
	}
	d8 := 8 * g.D()
	fac := make([]edgeFacs, g.NumEdges())
	costs := make([]byte, d8*g.NumEdges())
	for e := range fac {
		fac[e].ref = graph.NoFacRef
		for c, x := range g.Edge(graph.EdgeID(e)).W {
			le.PutUint64(costs[d8*e+8*c:], math.Float64bits(x))
		}
	}
	for p := 0; p < g.NumFacilities(); p++ {
		fac[g.Facility(graph.FacilityID(p)).Edge].count++
	}
	adjRefs := make([]uint64, len(order))
	arcSize := 19 + d8
	for id, v := range order {
		arcs := g.Arcs(v)
		for _, a := range arcs {
			f := &fac[a.Edge]
			if f.count == 0 || f.ref != graph.NoFacRef {
				continue
			}
			if f.count > math.MaxUint16 {
				return 0, nil, fmt.Errorf("edge %d has %d facilities, a record holds at most %d", a.Edge, f.count, math.MaxUint16)
			}
			ref, rec, err := w.record(12 * int(f.count))
			if err != nil {
				return 0, nil, err
			}
			f.ref = ref.Pack()
			for k, p := range g.EdgeFacilities(a.Edge) {
				le.PutUint32(rec[12*k:], uint32(p))
				le.PutUint64(rec[12*k+4:], math.Float64bits(g.Facility(p).T))
			}
			if err := w.done(rec); err != nil {
				return 0, nil, err
			}
		}
		if len(arcs) > math.MaxUint16 {
			return 0, nil, fmt.Errorf("node %d has %d arcs, a record holds at most %d", v, len(arcs), math.MaxUint16)
		}
		ref, rec, err := w.record(2 + len(arcs)*arcSize)
		if err != nil {
			return 0, nil, err
		}
		adjRefs[id] = ref.Pack()
		le.PutUint16(rec, uint16(len(arcs)))
		for k, a := range arcs {
			r := rec[2+k*arcSize : 2+(k+1)*arcSize]
			f := fac[a.Edge]
			le.PutUint32(r[0:], uint32(rank[a.Neighbor]))
			le.PutUint32(r[4:], uint32(a.Edge))
			r[8] = 0
			if a.Forward {
				r[8] = 1 // flags bit 0
			}
			le.PutUint16(r[9:], uint16(f.count))
			le.PutUint64(r[11:], f.ref)
			copy(r[19:], costs[d8*int(a.Edge):])
		}
		if err := w.done(rec); err != nil {
			return 0, nil, err
		}
	}
	return first.Page, adjRefs, w.close()
}

// writeTable writes a table of n values of size bytes each, size a divisor
// of PageSize, starting on a fresh page, and returns that page; an empty
// table still takes one. fill(b, i) encodes values i, i+1, … into b, one
// page's share at a time.
func writeTable(dev Device, n, size int, fill func(b []byte, i int) error) (PageID, error) {
	scratch := make([]byte, PageSize)
	var first PageID
	perPage := PageSize / size
	for k := 0; k < max(int(tablePages(uint64(n), uint64(size))), 1); k++ {
		id, buf, err := newPage(dev, scratch)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			first = id
		} else if id != first+PageID(k) {
			return 0, fmt.Errorf("storage: non-contiguous allocation (%d after %d)", id, first+PageID(k-1))
		}
		if i := k * perPage; i < n {
			if err := fill(buf[:size*min(perPage, n-i)], i); err != nil {
				return 0, err
			}
		}
		if err := putPage(dev, id, buf); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// BuildMem builds the database for g on a fresh in-memory device.
func BuildMem(g *graph.Graph) (*MemDevice, error) {
	dev := NewMemDevice()
	if err := Build(g, dev); err != nil {
		return nil, err
	}
	return dev, nil
}
