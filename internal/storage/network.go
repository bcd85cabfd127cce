package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sync/atomic"

	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/vec"
)

// Network is a read handle to a disk-resident MCN database. It satisfies the
// network-source interface consumed by the expansion engine, so LSA and CEA
// run against it directly; every adjacency-tree, facility-tree and data-file
// access goes through the buffer pool.
//
// Node ids are the database's own: a node's id is the number of its
// adjacency record, its rank in graph.LocalityOrder (see the layout
// comment). Adjacency entries and EdgeInfo end-nodes name nodes by it, and
// the pruning index Bounds returns is in it. Edge and facility ids are the
// graph's.
//
// Over a mapped FileDevice the pages a fetch decodes are slices of the
// mapping. Each record fetch (AppendAdjacency, AppendFacilities,
// FacilityEdge and EdgeInfo) over a FileDevice holds the device open for
// its duration, and once the device is closed fails with a storage fault
// wrapping os.ErrClosed, even when the pool caches every page it needs.
// Every fetch runs with memory faults turned into panics, and one raised
// in the fetch — the file was truncated behind the handle — fails it with
// the storage fault a short read gives, wrapping io.ErrUnexpectedEOF, and
// counts as a permanent failure.
type Network struct {
	pool *BufferPool
	// file is the pool's device when it is a FileDevice.
	file     *FileDevice
	hdr      *header
	adjTree  *BTree
	facTree  *BTree
	edgeTree *BTree
	// bounds is the pruning index loaded from the bounds table.
	bounds *index.Bounds
	// order is the rank table: the graph's id of each node. No query reads
	// it; it relates the database to the graph it was built from.
	order []graph.NodeID
}

// OpenOptions prepares a network handle over dev with a buffer pool holding
// bufferFrac of the database pages (the paper's cache-size parameter; 0
// disables caching, 1 or more holds every page), tuned by opts (the
// replacement policy). A bufferFrac that is negative, infinite or NaN is
// refused. The zero PoolOptions is a clock cache with lock-free hits, whose
// concurrent misses of one page share one read.
func OpenOptions(dev Device, bufferFrac float64, opts PoolOptions) (*Network, error) {
	if !(bufferFrac >= 0) || math.IsInf(bufferFrac, 1) {
		return nil, fmt.Errorf("storage: buffer fraction %v: want a finite fraction of at least 0", bufferFrac)
	}
	pool := NewBufferPoolFrac(dev, bufferFrac, opts)
	return OpenWithPool(dev, pool)
}

// OpenWithPool is OpenOptions with a caller-constructed buffer pool.
func OpenWithPool(dev Device, pool *BufferPool) (*Network, error) {
	buf := make([]byte, PageSize)
	if dev.NumPages() == 0 {
		return nil, fmt.Errorf("storage: empty device")
	}
	if err := dev.ReadPage(0, buf); err != nil {
		return nil, err
	}
	hdr, err := decodeHeader(buf)
	if err != nil {
		return nil, err
	}
	if err := hdr.validate(dev.NumPages()); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	// Load the checksum table (8 bytes per covered page, ~0.2% of the
	// database) directly from the device — its own pages are not covered —
	// and have the pool verify the pages it reads against it: every read,
	// or on a FileDevice (whose bytes are not rewritten while it is open) the
	// first read of each page in this open.
	sums := make([]uint32, hdr.checksumPages+1) // indexed by page id; 0 unused
	err = loadTable(dev, nil, hdr.checksumFirst, hdr.checksumPages, 8, func(i int, v []byte) { sums[i+1] = le.Uint32(v) })
	if err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}
	pool.sums = sums
	file, _ := pool.dev.(*FileDevice)
	if file != nil {
		pool.verified = make([]atomic.Uint64, (len(sums)+63)/64)
	}
	// Load the pruning-bounds table (d × numNodes f64, criterion-major) and
	// the rank table directly from the device too: they are read once here
	// and never again, so routing them through the pool would only perturb
	// the cache statistics.
	data := make([]float64, hdr.d*hdr.numNodes)
	err = loadTable(dev, sums, hdr.boundsFirst, len(data), 8, func(i int, v []byte) { data[i] = math.Float64frombits(le.Uint64(v)) })
	if err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}
	bounds, err := index.FromData(hdr.d, hdr.numNodes, data)
	if err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}
	order := make([]graph.NodeID, hdr.numNodes)
	err = loadTable(dev, sums, hdr.rankFirst, len(order), 4, func(i int, v []byte) { order[i] = graph.NodeID(le.Uint32(v)) })
	if err == nil {
		err = checkPermutation(order)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: rank table: %w", err)
	}
	return &Network{
		pool:     pool,
		file:     file,
		hdr:      hdr,
		adjTree:  OpenBTree(pool, hdr.adjTreeRoot),
		facTree:  OpenBTree(pool, hdr.facTreeRoot),
		edgeTree: OpenBTree(pool, hdr.edgeTreeRoot),
		bounds:   bounds,
		order:    order,
	}, nil
}

// loadTable reads the n values of size bytes stored from page first on,
// straight from the device, verifying each page against sums unless sums is
// nil.
func loadTable(dev Device, sums []uint32, first PageID, n, size int, put func(i int, v []byte)) error {
	buf := make([]byte, PageSize)
	for i := 0; i < n; first++ {
		if err := dev.ReadPage(first, buf); err != nil {
			return err
		}
		if sums != nil && PageChecksum(buf) != sums[first] {
			return fmt.Errorf("storage: page %d: %w", first, ErrChecksum)
		}
		for off := 0; off+size <= PageSize && i < n; off += size {
			put(i, buf[off:off+size])
			i++
		}
	}
	return nil
}

// checkPermutation reports an error unless order holds every node id
// 0..len-1 exactly once.
func checkPermutation(order []graph.NodeID) error {
	seen := make([]bool, len(order))
	for r, v := range order {
		if int(v) >= len(order) {
			return fmt.Errorf("rank %d names node %d, %d nodes", r, v, len(order))
		}
		if seen[v] {
			return fmt.Errorf("node %d given twice (again at rank %d)", v, r)
		}
		seen[v] = true
	}
	return nil
}

// D returns the number of cost types.
func (n *Network) D() int { return n.hdr.d }

// Directed reports whether the network is directed.
func (n *Network) Directed() bool { return n.hdr.directed }

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.hdr.numNodes }

// NumEdges returns the edge count.
func (n *Network) NumEdges() int { return n.hdr.numEdges }

// NumFacilities returns the facility count.
func (n *Network) NumFacilities() int { return n.hdr.numFacs }

// Bounds returns the pruning index persisted in the database.
func (n *Network) Bounds() *index.Bounds { return n.bounds }

// Pool exposes the buffer pool (for statistics and resets).
func (n *Network) Pool() *BufferPool { return n.pool }

// Stats returns the buffer pool counters.
func (n *Network) Stats() Stats { return n.pool.Stats() }

// FailureStats returns the buffer pool's I/O failure counters.
func (n *Network) FailureStats() FailureStats { return n.pool.FailureStats() }

// enter starts a record fetch: it holds a FileDevice open, failing once it
// is closed, and turns memory faults into panics. The fetch defers leave
// with the setting enter returns.
func (n *Network) enter() (old bool, err error) {
	if f := n.file; f != nil {
		f.mu.RLock()
		if f.closed {
			f.mu.RUnlock()
			return false, faultf("fetch: %w", os.ErrClosed)
		}
	}
	return debug.SetPanicOnFault(true), nil
}

// leave ends a record fetch begun by enter, restoring the fault setting
// old. A memory fault raised in the fetch becomes its error, counted as a
// permanent failure; any other panic goes on.
func (n *Network) leave(old bool, err *error) {
	r := recover()
	debug.SetPanicOnFault(old)
	if n.file != nil {
		n.file.mu.RUnlock()
	}
	if r != nil {
		*err = mappedFault(r, "fetch")
		n.pool.failPermanent.Add(1)
	}
}

// Record sizes of the data file (see the layout comment).
const (
	arcFixed = 4 + 4 + 1 + 2 + 8 // neighbor, edge, flags, facCount, facRef
	facSize  = 4 + 8             // facility, T
)

// arcs positions c on the adjacency record of v — an adjacency-tree lookup
// of v followed by a data-file record read — and returns the record's arcs
// as raw bytes, arcFixed+8d each, valid until c is closed.
func (n *Network) arcs(c *cursor, v graph.NodeID) ([]byte, error) {
	if int(v) >= n.hdr.numNodes {
		return nil, faultf("node %d out of range (%d nodes)", v, n.hdr.numNodes)
	}
	packed, ok, err := n.adjTree.Lookup(uint64(v))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, faultf("node %d missing from adjacency tree", v)
	}
	*c = newCursor(n.pool, UnpackRef(packed))
	head, err := c.next(2)
	if err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint16(head))
	return c.next(count * (arcFixed + 8*n.hdr.d))
}

// decodeArc fills e from one arc's bytes, its costs into w (len d).
func decodeArc(arc []byte, e *graph.AdjEntry, w vec.Costs) {
	le := binary.LittleEndian
	e.Neighbor = graph.NodeID(le.Uint32(arc[0:]))
	e.Edge = graph.EdgeID(le.Uint32(arc[4:]))
	e.Forward = arc[8]&1 != 0
	e.FacCount = int(le.Uint16(arc[9:]))
	e.FacRef = le.Uint64(arc[11:])
	for j := range w {
		w[j] = math.Float64frombits(le.Uint64(arc[arcFixed+8*j:]))
	}
	e.W = w
}

// Adjacency returns the adjacency list of v: one entry per outgoing arc with
// the edge's full cost vector and its facility-record pointer, in one slice
// whose cost vectors share one slab; both are the caller's to keep.
func (n *Network) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	entries, _, err := n.AppendAdjacency(nil, nil, v)
	return entries, err
}

// AppendAdjacency decodes the adjacency record of v in place from its page,
// appending its entries to dst and their cost vectors to costs, and
// returns both extended. Each entry's W is a full slice of the appended part
// of costs, so a caller that reuses its buffers decodes without allocating.
// On error dst and costs are returned unextended.
func (n *Network) AppendAdjacency(dst []graph.AdjEntry, costs []float64, v graph.NodeID) (outDst []graph.AdjEntry, outCosts []float64, err error) {
	outDst, outCosts = dst, costs
	old, err := n.enter()
	if err != nil {
		return dst, costs, err
	}
	defer n.leave(old, &err)
	var c cursor
	defer c.close()
	arcs, err := n.arcs(&c, v)
	if err != nil {
		return dst, costs, err
	}
	d := n.hdr.d
	size := arcFixed + 8*d
	k := len(arcs) / size
	dst, costs = slices.Grow(dst, k), slices.Grow(costs, k*d)
	for arc := range slices.Chunk(arcs, size) {
		j := len(costs)
		costs = costs[:j+d]
		dst = append(dst, graph.AdjEntry{})
		decodeArc(arc, &dst[len(dst)-1], costs[j:j+d:j+d])
	}
	return dst, costs, nil
}

// Facilities reads the facility record at facRef holding count entries
// (facility id and position on the edge).
func (n *Network) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	return n.AppendFacilities(nil, facRef, count)
}

// AppendFacilities decodes the facility record at facRef holding count
// entries, appending them to dst. On error dst is returned unextended.
func (n *Network) AppendFacilities(dst []graph.FacEntry, facRef uint64, count int) (out []graph.FacEntry, err error) {
	if facRef == graph.NoFacRef || count == 0 {
		return dst, nil
	}
	out = dst
	old, err := n.enter()
	if err != nil {
		return dst, err
	}
	defer n.leave(old, &err)
	c := newCursor(n.pool, UnpackRef(facRef))
	defer c.close()
	rec, err := c.next(count * facSize)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, count)
	for fac := range slices.Chunk(rec, facSize) {
		dst = append(dst, graph.FacEntry{
			ID: graph.FacilityID(binary.LittleEndian.Uint32(fac)),
			T:  math.Float64frombits(binary.LittleEndian.Uint64(fac[4:])),
		})
	}
	return dst, nil
}

// FacilityEdge returns the edge that facility p lies on, via the facility
// tree (used by the shrinking-stage optimisation that restricts facility-
// record reads to candidate edges).
func (n *Network) FacilityEdge(p graph.FacilityID) (_ graph.EdgeID, err error) {
	old, err := n.enter()
	if err != nil {
		return 0, err
	}
	defer n.leave(old, &err)
	v, ok, err := n.facTree.Lookup(uint64(p))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, faultf("facility %d missing from facility tree", p)
	}
	return graph.EdgeID(v), nil
}

// EdgeInfo resolves edge e to its end-nodes, cost vector and facility
// record, used to initialise expansions at an on-edge query location. It
// costs one edge-tree lookup plus one adjacency access.
func (n *Network) EdgeInfo(e graph.EdgeID) (_ graph.EdgeInfo, err error) {
	old, err := n.enter()
	if err != nil {
		return graph.EdgeInfo{}, err
	}
	defer n.leave(old, &err)
	uVal, ok, err := n.edgeTree.Lookup(uint64(e))
	if err != nil {
		return graph.EdgeInfo{}, err
	}
	if !ok {
		return graph.EdgeInfo{}, faultf("edge %d missing from edge tree", e)
	}
	u := graph.NodeID(uVal)
	var c cursor
	defer c.close()
	arcs, err := n.arcs(&c, u)
	if err != nil {
		return graph.EdgeInfo{}, err
	}
	for size := arcFixed + 8*n.hdr.d; len(arcs) >= size; arcs = arcs[size:] {
		if graph.EdgeID(binary.LittleEndian.Uint32(arcs[4:])) != e {
			continue
		}
		var a graph.AdjEntry
		decodeArc(arcs[:size], &a, make(vec.Costs, n.hdr.d))
		return graph.EdgeInfo{U: u, V: a.Neighbor, W: a.W, FacRef: a.FacRef, FacCount: a.FacCount}, nil
	}
	return graph.EdgeInfo{}, faultf("edge %d not present in adjacency of node %d", e, u)
}
