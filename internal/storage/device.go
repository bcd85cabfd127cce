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
// file is opened read-only and served from a memory map (on unix): a page
// miss copies 4 KiB out of the page cache into the pool's frame instead of
// making a read system call, and a fault in that copy is returned as an
// error, not a crash (see FileDevice).
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
type MemDevice struct {
	pages [][]byte
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// ReadPage implements Device.
func (m *MemDevice) ReadPage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return faultf("read of unallocated page %d (have %d)", id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
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
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

// NumPages implements Device.
func (m *MemDevice) NumPages() int { return len(m.pages) }

// Close implements Device.
func (m *MemDevice) Close() error { return nil }

// FileDevice is a database file opened read-only: WritePage and Alloc fail.
// On unix the file is mapped, and a page read is one 4 KiB copy out of the
// mapping (page cache shared with every other process that maps or reads
// the file) into the caller's buffer: no system call per read; elsewhere it
// is a ReadAt. The device copies rather than lending out slices of the
// mapping, so a buffer-pool frame owns its bytes and the pool's pins, Drop
// and Close keep their meaning.
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
	// mapping until Close unmaps it. mu orders Close's unmap after every
	// copy in flight.
	mapped bool
	mu     sync.RWMutex
	data   []byte
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
func (d *FileDevice) ReadPage(id PageID, buf []byte) error {
	if int(id) >= d.n {
		return faultf("read of unallocated page %d (have %d)", id, d.n)
	}
	if d.mapped {
		return d.copyPage(id, buf)
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

// copyPage copies page id out of the mapping. Touching a mapped page the
// file no longer backs (truncated behind the handle) or the medium cannot
// deliver raises a fault; it is recovered here and returned as the error a
// short read gives.
func (d *FileDevice) copyPage(id PageID, buf []byte) (err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.data == nil {
		return faultf("read page %d: %w", id, os.ErrClosed)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = faultf("read page %d: fault in mapped file: %w", id, io.ErrUnexpectedEOF)
		}
	}()
	off := int(id) * PageSize
	copy(buf[:PageSize], d.data[off:off+PageSize])
	return nil
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

// Close implements Device: it unmaps the file, once every read in flight
// has finished, and closes it. A read after Close fails with an error.
func (d *FileDevice) Close() error {
	d.mu.Lock()
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
