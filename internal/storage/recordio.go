package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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

// pageWriter appends bytes to consecutively allocated pages of a device.
// Records may span page boundaries; because Alloc returns consecutive ids,
// a reader can continue a record simply by moving to the next page.
type pageWriter struct {
	dev  Device
	page PageID
	buf  []byte
	off  int
	open bool
}

func newPageWriter(dev Device) *pageWriter {
	return &pageWriter{dev: dev, buf: make([]byte, PageSize)}
}

// pos returns the ref at which the next byte will be written, opening the
// first page lazily.
func (w *pageWriter) pos() (Ref, error) {
	if !w.open {
		id, err := w.dev.Alloc()
		if err != nil {
			return Ref{}, err
		}
		w.page, w.off, w.open = id, 0, true
	}
	if w.off == PageSize {
		if err := w.flushPage(); err != nil {
			return Ref{}, err
		}
	}
	return Ref{Page: w.page, Off: uint16(w.off)}, nil
}

func (w *pageWriter) flushPage() error {
	if err := w.dev.WritePage(w.page, w.buf); err != nil {
		return err
	}
	id, err := w.dev.Alloc()
	if err != nil {
		return err
	}
	if id != w.page+1 {
		return fmt.Errorf("storage: non-contiguous allocation (%d after %d)", id, w.page)
	}
	w.page, w.off = id, 0
	for i := range w.buf {
		w.buf[i] = 0
	}
	return nil
}

func (w *pageWriter) write(p []byte) error {
	if _, err := w.pos(); err != nil {
		return err
	}
	for len(p) > 0 {
		if w.off == PageSize {
			if err := w.flushPage(); err != nil {
				return err
			}
		}
		n := copy(w.buf[w.off:], p)
		w.off += n
		p = p[n:]
	}
	return nil
}

func (w *pageWriter) writeU16(v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return w.write(b[:])
}

func (w *pageWriter) writeU32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return w.write(b[:])
}

func (w *pageWriter) writeU64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return w.write(b[:])
}

func (w *pageWriter) writeF64(v float64) error {
	return w.writeU64(math.Float64bits(v))
}

// close flushes the final partial page.
func (w *pageWriter) close() error {
	if !w.open {
		return nil
	}
	return w.dev.WritePage(w.page, w.buf)
}

// cursor reads bytes sequentially from a ref through a buffer pool,
// following records across contiguous pages. It keeps the page it is on
// pinned and unpins it before asking for the next, so it holds at most one
// pin; close drops the last one. A non-nil ctx binds every page read to it
// (see BufferPool.GetCtx).
type cursor struct {
	pool *BufferPool
	ctx  context.Context
	page PageID
	off  int
	fr   *Frame
	// spill holds a record that spans a page boundary, assembled by next;
	// borrowed from spillPool and returned by close.
	spill *[]byte
}

// spillPool lends cursors the buffers they assemble page-spanning records
// in, so such a record costs no allocation once the buffers exist.
var spillPool = sync.Pool{New: func() any { return new([]byte) }}

func newCursor(ctx context.Context, pool *BufferPool, ref Ref) cursor {
	return cursor{pool: pool, ctx: ctx, page: ref.Page, off: int(ref.Off)}
}

// close unpins the page the cursor is on and returns its spill buffer.
func (c *cursor) close() {
	if c.fr != nil {
		c.fr.Release()
		c.fr = nil
	}
	if c.spill != nil {
		spillPool.Put(c.spill)
		c.spill = nil
	}
}

// ensure pins the page holding the next byte.
func (c *cursor) ensure() error {
	if c.fr != nil && c.off < PageSize {
		return nil
	}
	if c.fr != nil {
		c.fr.Release()
		c.fr = nil
		c.page++
		c.off = 0
	}
	fr, err := c.pool.GetCtx(c.ctx, c.page)
	if err != nil {
		return err
	}
	c.fr = fr
	return nil
}

func (c *cursor) read(p []byte) error {
	for len(p) > 0 {
		if err := c.ensure(); err != nil {
			return err
		}
		n := copy(p, c.fr.data[c.off:])
		c.off += n
		p = p[n:]
	}
	return nil
}

// next returns the next n bytes: a view into the pinned page when they lie
// within it — the common case, decoded in place — and a copy assembled
// across pages in the spill buffer when the record spans a boundary. Either
// is valid until the cursor's next call or its close.
func (c *cursor) next(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if err := c.ensure(); err != nil {
		return nil, err
	}
	if c.off+n <= PageSize {
		b := c.fr.data[c.off : c.off+n]
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
