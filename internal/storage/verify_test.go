package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// kthFlipDevice inverts one bit of page on the k-th read of it.
type kthFlipDevice struct {
	Device
	page  PageID
	k     int
	reads int
}

func (d *kthFlipDevice) ReadPage(id PageID, buf []byte) error {
	err := d.Device.ReadPage(id, buf)
	if err == nil && id == d.page {
		if d.reads++; d.reads == d.k {
			buf[100] ^= 0x10
		}
	}
	return err
}

// Only the FileDevice itself verifies a page once per open: a wrapper that
// embeds one is verified on every read, so a page it damages on a later read
// than the first fails too.
func TestFileDeviceWrapperVerifiedEveryRead(t *testing.T) {
	mem, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.mcn")
	writeImage(t, mem, path)
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			fdev, err := OpenFileDevice(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fdev.Close()
			n, err := OpenOptions(fdev, 0, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			data := n.hdr.dataFirst
			dev := &kthFlipDevice{Device: fdev, page: data, k: k}
			pool := NewBufferPool(dev, 1) // page data and page data+1 take turns: every Get misses
			if _, err := OpenWithPool(dev, pool); err != nil {
				t.Fatal(err)
			}
			if n.pool.verified == nil || pool.verified != nil {
				t.Fatalf("verified once per open: FileDevice %v, wrapper %v; want only the FileDevice",
					n.pool.verified != nil, pool.verified != nil)
			}
			for read := 1; read <= 4; read++ {
				_, err := pool.Get(data)
				if read == k {
					if !errors.Is(err, ErrChecksum) {
						t.Fatalf("read %d, damaged: %v, want ErrChecksum", read, err)
					}
				} else if err != nil {
					t.Fatalf("read %d, clean: %v", read, err)
				}
				if _, err := pool.Get(data + 1); err != nil {
					t.Fatal(err)
				}
			}
			if fs := pool.FailureStats(); fs.Checksum != 1 {
				t.Errorf("checksum errors = %d, want 1", fs.Checksum)
			}
			if s := pool.Stats(); s.Physical != s.Logical {
				t.Errorf("%v: a Get hit the pool", s)
			}
		})
	}
}
