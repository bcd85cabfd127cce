// Package storage implements the disk-resident MCN storage scheme of the
// paper (Fig. 2): adjacency-list records, the facility records of each edge,
// an adjacency tree locating a node's record, and a facility tree mapping
// facilities to their edges — all laid out on fixed-size pages behind a
// clock-sweep buffer pool that counts logical and physical reads. An
// additional edge tree (edge → first end-node) supports query
// initialisation at arbitrary network locations.
//
// The paper leaves record order open. Here one data file holds both record
// kinds in the Hilbert-curve order of the node coordinates, each facility
// record beside the first adjacency record that points at it, and the
// database numbers its nodes in that order — a node's id is its record
// number, which also keys the adjacency tree — so one expansion's reads
// cluster on few pages (layout.go has the byte-level layout).
//
// A database is built on a MemDevice and written to its file whole. The
// file is opened read-only and served from a memory map (on unix): the
// buffer pool lends pages out of the mapping, so a page miss copies nothing
// and makes no system call. A fault in mapped memory — a file truncated
// behind the handle — fails the record fetch that touched it with an error,
// not a crash (see FileDevice and Network).
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page on a device.
type PageID uint32

// Device is a page-addressed storage medium. Implementations must return
// stable page contents; concurrent use requires external synchronisation.
type Device interface {
	// ReadPage fills buf (len PageSize) with the contents of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len PageSize) as the contents of page id.
	WritePage(id PageID, buf []byte) error
	// Alloc appends a zeroed page and returns its id. Pages are numbered
	// consecutively from zero, so sequentially allocated extents are
	// contiguous.
	Alloc() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Close releases underlying resources.
	Close() error
}

// MemDevice is an in-memory Device. The zero value is an empty device.
//
// Pages are cut from slabs, each a run of consecutive pages in one
// allocation, so a build allocates a few slabs rather than a page at a
// time, and WriteTo writes the device out with one write per slab. A slab
// holds as many pages as the device had when it was cut, from minSlabPages
// up to maxSlabPages, so a small device stays small.
type MemDevice struct {
	pages [][]byte // pages[id], a PageSize window of a slab
	slabs [][]byte // the slabs, each as long as its allocated pages
}

// The page counts a MemDevice's slabs hold, at least and at most.
const (
	minSlabPages = 16
	maxSlabPages = 256
)

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// ReadPage implements Device.
func (m *MemDevice) ReadPage(id PageID, buf []byte) error {
	p, err := m.lend(id)
	if err != nil {
		return err
	}
	copy(buf, p[:])
	return nil
}

// lend returns the device's own page id, for the buffer pool to hand out
// and the builder to encode and checksum without a copy.
func (m *MemDevice) lend(id PageID) (*[PageSize]byte, error) {
	if int(id) >= len(m.pages) {
		return nil, faultf("read of unallocated page %d (have %d)", id, len(m.pages))
	}
	return (*[PageSize]byte)(m.pages[id]), nil
}

// WritePage implements Device.
func (m *MemDevice) WritePage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, len(m.pages))
	}
	copy(m.pages[id], buf)
	return nil
}

// Alloc implements Device.
func (m *MemDevice) Alloc() (PageID, error) {
	last := len(m.slabs) - 1
	if last < 0 || len(m.slabs[last]) == cap(m.slabs[last]) {
		n := min(max(len(m.pages), minSlabPages), maxSlabPages)
		m.slabs = append(m.slabs, make([]byte, 0, n*PageSize))
		last++
	}
	slab := m.slabs[last]
	m.slabs[last] = slab[:len(slab)+PageSize]
	m.pages = append(m.pages, slab[len(slab):len(slab)+PageSize:len(slab)+PageSize])
	return PageID(len(m.pages) - 1), nil
}

// WriteTo writes every page to w in page order, one write per slab, and
// returns the bytes written (io.WriterTo).
func (m *MemDevice) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, slab := range m.slabs {
		k, err := w.Write(slab)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// NumPages implements Device.
func (m *MemDevice) NumPages() int { return len(m.pages) }

// Close implements Device.
func (m *MemDevice) Close() error { return nil }

// FileDevice is a database file opened read-only: WritePage and Alloc fail.
// On unix the file is mapped (page cache shared with every other process
// that maps or reads the file), and a buffer pool over the device lends its
// pages as slices of the mapping: a miss copies nothing and makes no system
// call. ReadPage, the path of a device that wraps one, copies a page out of
// the mapping; elsewhere it is a ReadAt.
//
// A slice of the mapping is valid until Close unmaps it. Touching one that
// the file no longer backs (truncated behind the handle) or that the medium
// cannot deliver raises a memory fault, so every reader of the mapping runs
// with faults turned into panics and recovers them as the error a short
// read gives: ReadPage, the pool's miss, and each record fetch of a Network.
// Those readers hold mu for reading, and Close takes it exclusively before
// it unmaps, so a fetch after Close fails with an error wrapping
// os.ErrClosed.
//
// Its bytes are not rewritten while it is open (mcn.CreateDatabase replaces
// a file by rename, never in place), so a pool reading a database from a
// FileDevice verifies each page's checksum on its first read in an open and
// not on later misses. A device that wraps one is not a FileDevice and is
// verified on every read.
type FileDevice struct {
	f *os.File
	n int

	// mapped is set when OpenFileDevice mapped the file; data is the
	// mapping until Close unmaps it, and closed is set by Close. mu orders
	// Close after every reader of the mapping and every record fetch in
	// flight.
	mapped bool
	mu     sync.RWMutex
	data   []byte
	closed bool
}

// OpenFileDevice opens an existing file-backed device read-only, mapping it
// into memory where the platform supports it. A failed mapping fails the
// open.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open device: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat device: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: device size %d is not a multiple of the page size", st.Size())
	}
	d := &FileDevice{f: f, n: int(st.Size() / PageSize)}
	if d.n > 0 {
		if d.data, err = mapFile(f, st.Size()); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: map device: %w", err)
		}
		d.mapped = d.data != nil
	}
	return d, nil
}

// ReadPage implements Device. A read that cannot deliver all PageSize bytes
// is an error wrapping io.ErrUnexpectedEOF, not a silently zero-padded page:
// an allocated page that the file cannot fully deliver means the file was
// truncated behind the handle (or the medium failed), and callers need the
// page id rather than a page of garbage.
func (d *FileDevice) ReadPage(id PageID, buf []byte) (err error) {
	if int(id) >= d.n {
		return faultf("read of unallocated page %d (have %d)", id, d.n)
	}
	if d.mapped {
		d.mu.RLock()
		defer d.mu.RUnlock()
		p, lerr := d.lend(id)
		if lerr != nil {
			return lerr
		}
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if r := recover(); r != nil {
				err = mappedFault(r, fmt.Sprintf("read page %d", id))
			}
		}()
		copy(buf[:PageSize], p[:])
		return nil
	}
	// ReadAt may legitimately pair a full read of the final page with
	// io.EOF; only short reads fail.
	n, err := d.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if n == PageSize {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return faultf("read page %d: short read (%d of %d bytes): %w", id, n, PageSize, err)
}

// lend returns page id as a slice of the mapping, valid until Close. The
// caller holds mu for reading, or cannot race Close, and reads the page
// with faults turned into panics.
func (d *FileDevice) lend(id PageID) (*[PageSize]byte, error) {
	if int(id) >= d.n {
		return nil, faultf("read of unallocated page %d (have %d)", id, d.n)
	}
	if d.data == nil {
		return nil, faultf("read page %d: %w", id, os.ErrClosed)
	}
	off := int(id) * PageSize
	return (*[PageSize]byte)(d.data[off : off+PageSize]), nil
}

// mappedFault returns the error for r, a panic recovered from a read of
// mapped memory made under debug.SetPanicOnFault, at where: a memory fault
// becomes the storage fault a short read gives, wrapping
// io.ErrUnexpectedEOF. Any other panic goes on.
func mappedFault(r any, where string) error {
	if _, ok := r.(interface{ Addr() uintptr }); !ok {
		panic(r)
	}
	return faultf("%s: fault in mapped file: %w", where, io.ErrUnexpectedEOF)
}

// WritePage implements Device: it fails, the device is read-only.
func (d *FileDevice) WritePage(id PageID, _ []byte) error {
	return fmt.Errorf("storage: write page %d: read-only device: %w", id, errors.ErrUnsupported)
}

// Alloc implements Device: it fails, the device is read-only.
func (d *FileDevice) Alloc() (PageID, error) {
	return 0, fmt.Errorf("storage: grow device: read-only device: %w", errors.ErrUnsupported)
}

// NumPages implements Device.
func (d *FileDevice) NumPages() int { return d.n }

// Close implements Device: it unmaps the file, once every reader of the
// mapping in flight has finished, and closes it. A read after Close fails
// with an error wrapping os.ErrClosed.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	d.closed = true
	var err error
	if d.data != nil {
		err = unmapFile(d.data)
		d.data = nil
	}
	d.mu.Unlock()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}
