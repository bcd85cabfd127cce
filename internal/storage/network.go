package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/vec"
)

// Network is a read handle to a disk-resident MCN database. It satisfies the
// network-source interface consumed by the expansion engine, so LSA and CEA
// run against it directly; every adjacency-tree, adjacency-file, facility-
// tree and facility-file access goes through the sharded buffer pool.
type Network struct {
	pool     *BufferPool
	hdr      *header
	adjTree  *BTree
	facTree  *BTree
	edgeTree *BTree
	// bounds is the pruning index loaded from the bounds table.
	bounds *index.Bounds
	// ctx, when non-nil, bounds every page read issued through this handle
	// (see WithReadContext). Shared by all views of one database.
	ctx context.Context
}

// WithReadContext returns a view of n whose page reads are bound to ctx:
// retry backoff sleeps abort when ctx is done, and coalesced waiters stop
// waiting on another query's read. The view shares the pool, indexes and
// cache with n — it is a cheap per-query wrapper, not a reopened database.
// A nil ctx returns n itself.
func (n *Network) WithReadContext(ctx context.Context) *Network {
	if ctx == nil {
		return n
	}
	m := *n
	m.ctx = ctx
	return &m
}

// Open prepares a network handle over dev with a buffer pool holding
// bufferFrac of the database pages (the paper's cache-size parameter; 0
// disables caching) under the default pool options (sharded clock cache
// with miss coalescing).
func Open(dev Device, bufferFrac float64) (*Network, error) {
	return OpenOptions(dev, bufferFrac, PoolOptions{})
}

// OpenOptions is Open with explicit buffer-pool tuning (shard count,
// replacement policy, read retries).
func OpenOptions(dev Device, bufferFrac float64, opts PoolOptions) (*Network, error) {
	pool := NewBufferPoolFrac(dev, bufferFrac, opts)
	return OpenWithPool(dev, pool)
}

// OpenWithPool is Open with a caller-constructed buffer pool.
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
	// Load the checksum table (8 bytes per covered page, ~0.2% of the
	// database) directly from the device — its own pages are not covered —
	// and have the pool verify every page it reads against it.
	sums := make([]uint32, hdr.checksumPages+1) // indexed by page id; 0 unused
	err = loadTable(dev, hdr.checksumFirst, hdr.checksumPages, func(i int, v uint64) { sums[i+1] = uint32(v) })
	if err != nil {
		return nil, fmt.Errorf("storage: checksum table: %w", err)
	}
	pool.sums = sums
	// Load the pruning-bounds table (d × numNodes f64, criterion-major)
	// directly from the device too: it is read once here and never again, so
	// routing it through the pool would only perturb the cache statistics.
	data := make([]float64, hdr.d*hdr.numNodes)
	err = loadTable(dev, hdr.boundsFirst, len(data), func(i int, v uint64) { data[i] = math.Float64frombits(v) })
	if err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}
	bounds, err := index.FromData(hdr.d, hdr.numNodes, data)
	if err != nil {
		return nil, fmt.Errorf("storage: bounds table: %w", err)
	}
	return &Network{
		pool:     pool,
		hdr:      hdr,
		adjTree:  OpenBTree(pool, hdr.adjTreeRoot),
		facTree:  OpenBTree(pool, hdr.facTreeRoot),
		edgeTree: OpenBTree(pool, hdr.edgeTreeRoot),
		bounds:   bounds,
	}, nil
}

// loadTable reads the n u64 values stored from page first on, straight from
// the device.
func loadTable(dev Device, first PageID, n int, put func(i int, v uint64)) error {
	buf := make([]byte, PageSize)
	for i := 0; i < n; first++ {
		if err := dev.ReadPage(first, buf); err != nil {
			return err
		}
		for off := 0; off+8 <= PageSize && i < n; off += 8 {
			put(i, binary.LittleEndian.Uint64(buf[off:]))
			i++
		}
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

// Record sizes of the adjacency and facility files (see the layout comment).
const (
	arcFixed = 4 + 4 + 1 + 2 + 8 // neighbor, edge, flags, facCount, facRef
	facSize  = 4 + 8             // facility, T
)

// arcs positions c on the adjacency record of v — an adjacency-tree lookup
// followed by an adjacency-file record read — and returns the record's arcs
// as raw bytes, arcFixed+8d each, valid until c is closed.
func (n *Network) arcs(c *cursor, v graph.NodeID) ([]byte, error) {
	if int(v) >= n.hdr.numNodes {
		return nil, fmt.Errorf("storage: node %d out of range (%d nodes)", v, n.hdr.numNodes)
	}
	packed, ok, err := n.adjTree.LookupCtx(n.ctx, uint64(v))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("storage: node %d missing from adjacency tree", v)
	}
	*c = newCursor(n.ctx, n.pool, UnpackRef(packed))
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
// the edge's full cost vector and its facility-record pointer. The entries
// are decoded in place from the pinned page into one slice whose cost
// vectors share one slab; both are the caller's to keep.
func (n *Network) Adjacency(v graph.NodeID) ([]graph.AdjEntry, error) {
	var c cursor
	defer c.close()
	arcs, err := n.arcs(&c, v)
	if err != nil {
		return nil, err
	}
	d := n.hdr.d
	size := arcFixed + 8*d
	entries := make([]graph.AdjEntry, len(arcs)/size)
	slab := make(vec.Costs, len(entries)*d)
	for i := range entries {
		decodeArc(arcs[i*size:(i+1)*size], &entries[i], slab[i*d:(i+1)*d:(i+1)*d])
	}
	return entries, nil
}

// Facilities reads the facility-file record at facRef holding count entries
// (facility id and position on the edge).
func (n *Network) Facilities(facRef uint64, count int) ([]graph.FacEntry, error) {
	if facRef == graph.NoFacRef || count == 0 {
		return nil, nil
	}
	c := newCursor(n.ctx, n.pool, UnpackRef(facRef))
	defer c.close()
	rec, err := c.next(count * facSize)
	if err != nil {
		return nil, err
	}
	out := make([]graph.FacEntry, count)
	for i := range out {
		fac := rec[i*facSize:]
		out[i] = graph.FacEntry{
			ID: graph.FacilityID(binary.LittleEndian.Uint32(fac)),
			T:  math.Float64frombits(binary.LittleEndian.Uint64(fac[4:])),
		}
	}
	return out, nil
}

// FacilityEdge returns the edge that facility p lies on, via the facility
// tree (used by the shrinking-stage optimisation that restricts facility-
// file reads to candidate edges).
func (n *Network) FacilityEdge(p graph.FacilityID) (graph.EdgeID, error) {
	v, ok, err := n.facTree.LookupCtx(n.ctx, uint64(p))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("storage: facility %d missing from facility tree", p)
	}
	return graph.EdgeID(v), nil
}

// EdgeInfo resolves edge e to its end-nodes, cost vector and facility
// record, used to initialise expansions at an on-edge query location. It
// costs one edge-tree lookup plus one adjacency access.
func (n *Network) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, error) {
	uVal, ok, err := n.edgeTree.LookupCtx(n.ctx, uint64(e))
	if err != nil {
		return graph.EdgeInfo{}, err
	}
	if !ok {
		return graph.EdgeInfo{}, fmt.Errorf("storage: edge %d missing from edge tree", e)
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
	return graph.EdgeInfo{}, fmt.Errorf("storage: edge %d not present in adjacency of node %d", e, u)
}
