package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testDeviceBasics(t *testing.T, dev Device) {
	t.Helper()
	if dev.NumPages() != 0 {
		t.Fatalf("fresh device has %d pages", dev.NumPages())
	}
	p0, err := dev.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	p1, err := dev.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if p0 != 0 || p1 != 1 {
		t.Fatalf("page ids = %d, %d; want 0, 1", p0, p1)
	}

	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(i % 251)
	}
	if err := dev.WritePage(p1, buf); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	got := make([]byte, PageSize)
	if err := dev.ReadPage(p1, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("read back different contents")
	}
	// Page 0 must still be zero.
	if err := dev.ReadPage(p0, got); err != nil {
		t.Fatalf("ReadPage(0): %v", err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
	if err := dev.ReadPage(99, got); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := dev.WritePage(99, buf); err == nil {
		t.Error("write of unallocated page succeeded")
	}
}

func TestMemDevice(t *testing.T) {
	testDeviceBasics(t, NewMemDevice())
}

// writeImage writes the pages of dev to a new file at path, as
// mcn.CreateDatabase writes a database built in memory.
func writeImage(t *testing.T, dev *MemDevice, path string) {
	t.Helper()
	img := make([]byte, 0, dev.NumPages()*PageSize)
	page := make([]byte, PageSize)
	for id := 0; id < dev.NumPages(); id++ {
		if err := dev.ReadPage(PageID(id), page); err != nil {
			t.Fatal(err)
		}
		img = append(img, page...)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A memory image written to a file reads back through OpenFileDevice page
// for page, and the opened device refuses every write.
func TestFileDevice(t *testing.T) {
	mem := NewMemDevice()
	testDeviceBasics(t, mem)
	path := filepath.Join(t.TempDir(), "dev.mcn")
	writeImage(t, mem, path)

	ro, err := OpenFileDevice(path)
	if err != nil {
		t.Fatalf("OpenFileDevice: %v", err)
	}
	defer ro.Close()
	if ro.NumPages() != 2 {
		t.Fatalf("reopened pages = %d, want 2", ro.NumPages())
	}
	got := make([]byte, PageSize)
	if err := ro.ReadPage(1, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	for i := range got {
		if got[i] != byte(i%251) {
			t.Fatal("persisted page corrupted")
		}
	}
	if err := ro.ReadPage(0, got); err != nil {
		t.Fatalf("ReadPage(0): %v", err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("persisted fresh page not zeroed")
		}
	}
	if err := ro.ReadPage(99, got); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := ro.WritePage(1, got); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("write to a read-only device: %v, want errors.ErrUnsupported", err)
	}
	if _, err := ro.Alloc(); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("alloc on a read-only device: %v, want errors.ErrUnsupported", err)
	}
	if ro.NumPages() != 2 {
		t.Errorf("pages after refused writes = %d, want 2", ro.NumPages())
	}
}

func TestOpenFileDeviceBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mcn")
	if err := os.WriteFile(path, []byte("partial page"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDevice(path); err == nil {
		t.Error("device with torn page opened successfully")
	}
}

// fileDevice writes a file of n pages, page i filled with byte i+1, and
// returns its path with the file opened as a device.
func fileDevice(t *testing.T, n int) (string, *FileDevice) {
	t.Helper()
	mem := NewMemDevice()
	page := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		id, err := mem.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range page {
			page[j] = byte(i + 1)
		}
		if err := mem.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "dev.mcn")
	writeImage(t, mem, path)
	ro, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, ro
}

// A file truncated behind an open device: reading a page the file no longer
// holds is an error wrapping io.ErrUnexpectedEOF, not a crash and not a page
// of zeros, and the pool counts it as one permanent failure.
func TestFileDeviceTruncatedBehindHandle(t *testing.T) {
	path, dev := fileDevice(t, 4)
	defer dev.Close()
	if err := os.Truncate(path, PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := dev.ReadPage(0, buf); err != nil || buf[0] != 1 {
		t.Fatalf("page 0, still in the file: %v, first byte %d", err, buf[0])
	}
	err := dev.ReadPage(2, buf)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read of a truncated page: %v, want io.ErrUnexpectedEOF", err)
	}

	pool := NewBufferPool(dev, 2)
	if _, err := pool.Get(3); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("pool read of a truncated page: %v, want io.ErrUnexpectedEOF", err)
	}
	if fs := pool.FailureStats(); fs != (FailureStats{Permanent: 1}) {
		t.Errorf("failure stats %+v, want one permanent failure", fs)
	}
}

// Close releases the device: a read after it is an error, not a fault, and
// closing again is harmless.
func TestFileDeviceReadAfterClose(t *testing.T) {
	_, dev := fileDevice(t, 2)
	buf := make([]byte, PageSize)
	if err := dev.ReadPage(1, buf); err != nil || buf[0] != 2 {
		t.Fatalf("page 1: %v, first byte %d", err, buf[0])
	}
	if err := dev.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := dev.ReadPage(1, buf); err == nil {
		t.Error("read after Close succeeded")
	}
	if err := dev.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
		t.Errorf("second Close: %v", err)
	}
	if err := dev.ReadPage(0, buf); err == nil {
		t.Error("read after a second Close succeeded")
	}
}

// Close racing readers: every read either delivers the page's bytes or
// fails with an error; none faults or sees a half-unmapped page.
func TestFileDeviceCloseRacesReads(t *testing.T) {
	const pages = 8
	_, dev := fileDevice(t, pages)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 2000; i++ {
				id := PageID((w + i) % pages)
				if err := dev.ReadPage(id, buf); err != nil {
					continue
				}
				if buf[0] != byte(id+1) || buf[PageSize-1] != byte(id+1) {
					t.Errorf("page %d read back bytes %d…%d", id, buf[0], buf[PageSize-1])
					return
				}
			}
		}(w)
	}
	if err := dev.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
}
