package storage

import (
	"errors"
	"math/rand"
	"testing"
)

// PageChecksum is CRC-32C (Castagnoli): the check value of the CRC catalogue
// for "123456789", the RFC 3720 B.4 vector for 32 zero bytes, and a fixed
// page, so that a database written on one machine verifies on another.
func TestPageChecksumGolden(t *testing.T) {
	if got := PageChecksum([]byte("123456789")); got != 0xE3069283 {
		t.Errorf("CRC-32C(\"123456789\") = %#08x, want 0xE3069283", got)
	}
	if got := PageChecksum(make([]byte, 32)); got != 0x8A9136AA {
		t.Errorf("CRC-32C(32 zero bytes) = %#08x, want 0x8A9136AA", got)
	}
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i*7 + i>>8)
	}
	if got := PageChecksum(page); got != goldenPageCRC {
		t.Errorf("CRC-32C(fixed page) = %#08x, want %#08x", got, goldenPageCRC)
	}
}

const goldenPageCRC = 0x162FE1B7 // cross-checked with a bitwise implementation (reflected polynomial 0x82F63B78)

// bitFlipDevice serves one page with one bit inverted.
type bitFlipDevice struct {
	Device
	page PageID
	bit  int
}

func (d *bitFlipDevice) ReadPage(id PageID, buf []byte) error {
	err := d.Device.ReadPage(id, buf)
	if err == nil && id == d.page {
		buf[d.bit/8] ^= 1 << (d.bit % 8)
	}
	return err
}

// Any single inverted bit in any covered page must surface as ErrChecksum:
// a sample of (page, bit) pairs, plus the first and last bit of a page. The
// bounds and rank tables, the last covered pages, are verified as Open loads
// them; every other page when the pool reads it.
func TestSingleBitFlipFailsChecksum(t *testing.T) {
	mem, err := BuildMem(sampleGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := OpenOptions(mem, 0, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	covered := clean.hdr.checksumPages
	rng := rand.New(rand.NewSource(3))
	flips := [][2]int{{1, 0}, {covered, PageSize*8 - 1}}
	for i := 0; i < 400; i++ {
		flips = append(flips, [2]int{1 + rng.Intn(covered), rng.Intn(PageSize * 8)})
	}
	for _, f := range flips {
		dev := &bitFlipDevice{Device: mem, page: PageID(f[0]), bit: f[1]}
		n, err := OpenOptions(dev, 0, PoolOptions{})
		if dev.page >= clean.hdr.boundsFirst {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("table page %d bit %d flipped: Open error = %v, want ErrChecksum", f[0], f[1], err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.pool.Get(dev.page); !errors.Is(err, ErrChecksum) {
			t.Fatalf("page %d bit %d flipped: Get error = %v, want ErrChecksum", f[0], f[1], err)
		}
		if fs := n.FailureStats(); fs.Checksum != 1 {
			t.Fatalf("page %d bit %d flipped: checksum errors = %d, want 1", f[0], f[1], fs.Checksum)
		}
		// The neighbouring page is untouched and still verifies.
		other := PageID(1 + f[0]%covered)
		if _, err := n.pool.Get(other); err != nil {
			t.Fatalf("clean page %d: %v", other, err)
		}
	}
}

// BenchmarkPageChecksum: the cost of verifying one page, in bytes per second
// (the miss path pays it on every physical read from a MemDevice or a
// wrapped device, and on the first read of each page per open from a
// FileDevice).
func BenchmarkPageChecksum(b *testing.B) {
	page := make([]byte, PageSize)
	rand.New(rand.NewSource(1)).Read(page)
	b.SetBytes(PageSize)
	var sum uint32
	for i := 0; i < b.N; i++ {
		sum ^= PageChecksum(page)
	}
	checksumSink = sum
}

var checksumSink uint32
