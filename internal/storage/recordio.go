package storage

import (
	"fmt"
	"sync"
)

// Ref locates a byte position inside a page file: a page and an offset
// within it. Refs are packed into uint64 fields of other records.
type Ref struct {
	Page PageID
	Off  uint16
}

// Pack encodes the ref into a uint64 (page in the high bits).
func (r Ref) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Off) }

// UnpackRef decodes a packed ref.
func UnpackRef(v uint64) Ref {
	return Ref{Page: PageID(v >> 16), Off: uint16(v & 0xFFFF)}
}

// newPage allocates a page on dev and returns the zeroed bytes to encode it
// in: on a MemDevice the device's own page, so nothing is copied; on any
// other device scratch (len PageSize), which putPage writes out.
func newPage(dev Device, scratch []byte) (PageID, []byte, error) {
	id, err := dev.Alloc()
	if err != nil {
		return 0, nil, err
	}
	if m, ok := dev.(*MemDevice); ok {
		return id, m.pages[id], nil
	}
	clear(scratch)
	return id, scratch, nil
}

// putPage stores buf, the bytes newPage returned for page id: a no-op on a
// MemDevice, whose page buf is.
func putPage(dev Device, id PageID, buf []byte) error {
	if _, ok := dev.(*MemDevice); ok {
		return nil
	}
	return dev.WritePage(id, buf)
}

// pageWriter appends bytes to consecutively allocated pages of a device.
// Records may span page boundaries; because Alloc returns consecutive ids,
// a reader can continue a record simply by moving to the next page.
type pageWriter struct {
	dev     Device
	page    PageID
	buf     []byte // the open page's bytes (see newPage)
	scratch []byte
	off     int
	open    bool
	// spill holds a record that does not fit in the open page, between
	// record and done.
	spill   []byte
	spilled bool
}

func newPageWriter(dev Device) *pageWriter {
	w := &pageWriter{dev: dev}
	if _, ok := dev.(*MemDevice); !ok {
		w.scratch = make([]byte, PageSize)
	}
	return w
}

// pos returns the ref at which the next byte will be written, opening the
// first page lazily.
func (w *pageWriter) pos() (Ref, error) {
	if !w.open || w.off == PageSize {
		if err := w.nextPage(); err != nil {
			return Ref{}, err
		}
	}
	return Ref{Page: w.page, Off: uint16(w.off)}, nil
}

// nextPage stores the open page, if any, and opens the next one.
func (w *pageWriter) nextPage() error {
	if w.open {
		if err := putPage(w.dev, w.page, w.buf); err != nil {
			return err
		}
	}
	id, buf, err := newPage(w.dev, w.scratch)
	if err != nil {
		return err
	}
	if w.open && id != w.page+1 {
		return fmt.Errorf("storage: non-contiguous allocation (%d after %d)", id, w.page)
	}
	w.page, w.buf, w.off, w.open = id, buf, 0, true
	return nil
}

func (w *pageWriter) write(p []byte) error {
	for len(p) > 0 {
		if !w.open || w.off == PageSize {
			if err := w.nextPage(); err != nil {
				return err
			}
		}
		n := copy(w.buf[w.off:], p)
		w.off += n
		p = p[n:]
	}
	return nil
}

// record returns the ref of the next record and n > 0 bytes to encode it
// in, which done then commits: the open page's own bytes when the record
// fits in it, else a spill buffer that done writes across the boundary.
func (w *pageWriter) record(n int) (Ref, []byte, error) {
	ref, err := w.pos()
	if err != nil {
		return Ref{}, nil, err
	}
	if w.spilled = w.off+n > PageSize; w.spilled {
		if cap(w.spill) < n {
			w.spill = make([]byte, n)
		}
		return ref, w.spill[:n], nil
	}
	w.off += n
	return ref, w.buf[w.off-n : w.off], nil
}

// done commits rec, the bytes the last record call returned.
func (w *pageWriter) done(rec []byte) error {
	if !w.spilled {
		return nil
	}
	return w.write(rec)
}

// close stores the final partial page.
func (w *pageWriter) close() error {
	if !w.open {
		return nil
	}
	return putPage(w.dev, w.page, w.buf)
}

// cursor reads bytes sequentially from a ref through a buffer pool,
// following records across contiguous pages.
type cursor struct {
	pool *BufferPool
	page PageID
	off  int
	// data is the page the cursor is on, nil before the first read.
	data []byte
	// spill holds a record that spans a page boundary, assembled by next;
	// borrowed from spillPool and returned by close.
	spill *[]byte
}

// spillPool lends cursors the buffers they assemble page-spanning records
// in, so such a record costs no allocation once the buffers exist.
var spillPool = sync.Pool{New: func() any { return new([]byte) }}

func newCursor(pool *BufferPool, ref Ref) cursor {
	return cursor{pool: pool, page: ref.Page, off: int(ref.Off)}
}

// close returns the cursor's spill buffer.
func (c *cursor) close() {
	if c.spill != nil {
		spillPool.Put(c.spill)
		c.spill = nil
	}
}

// ensure fetches the page holding the next byte.
func (c *cursor) ensure() error {
	if c.data != nil && c.off < PageSize {
		return nil
	}
	if c.data != nil {
		c.page++
		c.off = 0
	}
	var err error
	c.data, err = c.pool.Get(c.page)
	return err
}

func (c *cursor) read(p []byte) error {
	for len(p) > 0 {
		if err := c.ensure(); err != nil {
			return err
		}
		n := copy(p, c.data[c.off:])
		c.off += n
		p = p[n:]
	}
	return nil
}

// next returns the next n bytes: a view into the page when they lie within
// it — the common case, decoded in place — and a copy assembled across
// pages in the spill buffer when the record spans a boundary. Either is
// valid until the cursor's next call or its close.
func (c *cursor) next(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if err := c.ensure(); err != nil {
		return nil, err
	}
	if c.off+n <= PageSize {
		b := c.data[c.off : c.off+n]
		c.off += n
		return b, nil
	}
	if c.spill == nil {
		c.spill = spillPool.Get().(*[]byte)
	}
	if cap(*c.spill) < n {
		*c.spill = make([]byte, n)
	}
	b := (*c.spill)[:n]
	return b, c.read(b)
}
