//go:build unix

package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// flipFileBit inverts one bit of page id in the file at path, in place.
func flipFileBit(t *testing.T, path string, id PageID, off int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	at := int64(id)*PageSize + int64(off)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x04
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// openFile opens the database file at path behind a pool of a fifth of its
// pages.
func openFile(t *testing.T, path string) *Network {
	t.Helper()
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	n, err := OpenOptions(dev, 0.2, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// A data page with a flipped bit in the database file fails every read of it
// with ErrChecksum, in one open and the next: a page is marked verified only
// once it passes.
func TestCorruptPageInDatabaseFile(t *testing.T) {
	mem, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.mcn")
	writeImage(t, mem, path)
	data := openFile(t, path).hdr.dataFirst
	flipFileBit(t, path, data, 1234)

	for open := 1; open <= 2; open++ {
		n := openFile(t, path)
		for get := int64(1); get <= 2; get++ {
			if _, err := n.pool.Get(data); !errors.Is(err, ErrChecksum) {
				t.Fatalf("open %d, Get %d of the damaged page: %v, want ErrChecksum", open, get, err)
			}
			if fs := n.FailureStats(); fs.Checksum != get {
				t.Fatalf("open %d, Get %d: checksum errors = %d, want %d", open, get, fs.Checksum, get)
			}
		}
	}
}

// The other side of the contract: a page of a FileDevice is verified once per
// open, so bytes rewritten in place after that read back unverified until
// the next open. Only a write by another program can do this;
// CreateDatabase replaces a file by rename.
func TestFilePageVerifiedOncePerOpen(t *testing.T) {
	mem, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.mcn")
	writeImage(t, mem, path)
	n := openFile(t, path)
	data := n.hdr.dataFirst
	fr, err := n.pool.Get(data)
	if err != nil {
		t.Fatal(err)
	}
	clean := bytes.Clone(fr.Data())
	fr.Release()

	flipFileBit(t, path, data, 1234)
	n.pool.Drop()
	fr, err = n.pool.Get(data)
	if err != nil {
		t.Fatalf("re-read of a page verified in this open: %v", err)
	}
	got := bytes.Clone(fr.Data())
	fr.Release()
	if bytes.Equal(got, clean) || got[1234] != clean[1234]^0x04 {
		t.Fatal("re-read did not return the rewritten bytes")
	}
	if s, fs := n.Stats(), n.FailureStats(); s.Physical != 2 || fs.Checksum != 0 {
		t.Errorf("%v, %+v: want 2 device reads and no checksum error", s, fs)
	}

	if _, err := openFile(t, path).pool.Get(data); !errors.Is(err, ErrChecksum) {
		t.Errorf("the next open read the rewritten page: %v, want ErrChecksum", err)
	}
}
