package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func (w *pageWriter) writeU16(v uint16) error {
	return w.write(binary.LittleEndian.AppendUint16(nil, v))
}

func (w *pageWriter) writeU32(v uint32) error {
	return w.write(binary.LittleEndian.AppendUint32(nil, v))
}

func (w *pageWriter) writeU64(v uint64) error {
	return w.write(binary.LittleEndian.AppendUint64(nil, v))
}

func (w *pageWriter) writeF64(v float64) error { return w.writeU64(math.Float64bits(v)) }

func TestRefPacking(t *testing.T) {
	r := Ref{Page: 0xDEADBE, Off: 0x1234}
	got := UnpackRef(r.Pack())
	if got != r {
		t.Errorf("roundtrip = %+v, want %+v", got, r)
	}
}

func TestPageWriterCursorRoundtrip(t *testing.T) {
	dev := NewMemDevice()
	w := newPageWriter(dev)

	ref1, err := w.pos()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeU16(7); err != nil {
		t.Fatal(err)
	}
	if err := w.writeU32(0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	ref2, err := w.pos()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeU64(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := w.writeF64(3.25); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	pool := NewBufferPool(dev, 4)
	le := binary.LittleEndian
	c := newCursor(pool, ref1)
	defer c.close()
	if b, err := c.next(2); err != nil || le.Uint16(b) != 7 {
		t.Fatalf("u16 = %v, %v", b, err)
	}
	if b, err := c.next(4); err != nil || le.Uint32(b) != 0xCAFEBABE {
		t.Fatalf("u32 = %x, %v", b, err)
	}
	c2 := newCursor(pool, ref2)
	defer c2.close()
	if b, err := c2.next(8); err != nil || le.Uint64(b) != 1<<40 {
		t.Fatalf("u64 = %v, %v", b, err)
	}
	if b, err := c2.next(8); err != nil || math.Float64frombits(le.Uint64(b)) != 3.25 {
		t.Fatalf("f64 = %v, %v", b, err)
	}
}

// Records larger than a page must span contiguous pages transparently.
func TestRecordSpansPages(t *testing.T) {
	dev := NewMemDevice()
	w := newPageWriter(dev)

	// Burn most of the first page so the record starts near the end.
	pad := make([]byte, PageSize-10)
	if err := w.write(pad); err != nil {
		t.Fatal(err)
	}
	ref, err := w.pos()
	if err != nil {
		t.Fatal(err)
	}
	record := make([]byte, 3*PageSize)
	rng := rand.New(rand.NewSource(1))
	rng.Read(record)
	if err := w.write(record); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	pool := NewBufferPool(dev, 8)
	c := newCursor(pool, ref)
	defer c.close()
	got, err := c.next(len(record))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, record) {
		t.Error("spanning record corrupted")
	}
}

// spanningRecords writes two random records of two pages each, both starting
// 100 bytes before a page boundary, so each spans three pages.
func spanningRecords(t *testing.T) (*MemDevice, []Ref, [][]byte) {
	t.Helper()
	dev := NewMemDevice()
	w := newPageWriter(dev)
	rng := rand.New(rand.NewSource(2))
	var refs []Ref
	var recs [][]byte
	for i := 0; i < 2; i++ {
		if err := w.write(make([]byte, PageSize-100)); err != nil {
			t.Fatal(err)
		}
		ref, err := w.pos()
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]byte, 2*PageSize)
		rng.Read(rec)
		if err := w.write(rec); err != nil {
			t.Fatal(err)
		}
		refs, recs = append(refs, ref), append(recs, rec)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	return dev, refs, recs
}

// A page-spanning record is assembled in a buffer the cursor borrows until
// close: another cursor assembling its own record meanwhile must not get the
// same buffer.
func TestSpillBufferHeldUntilClose(t *testing.T) {
	dev, refs, recs := spanningRecords(t)
	pool := NewBufferPool(dev, 8)
	a := newCursor(pool, refs[0])
	gotA, err := a.next(len(recs[0]))
	if err != nil {
		t.Fatal(err)
	}
	b := newCursor(pool, refs[1])
	gotB, err := b.next(len(recs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, recs[0]) || !bytes.Equal(gotB, recs[1]) {
		t.Error("a spanning record changed while another cursor assembled its own")
	}
	a.close()
	b.close()
}

// Property: any sequence of variable-size writes reads back identically from
// recorded positions.
func TestPageWriterRandomizedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		dev := NewMemDevice()
		w := newPageWriter(dev)
		type rec struct {
			ref  Ref
			data []byte
		}
		var recs []rec
		for i := 0; i < 100; i++ {
			ref, err := w.pos()
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 1+rng.Intn(700))
			rng.Read(data)
			if err := w.write(data); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec{ref, data})
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		pool := NewBufferPool(dev, 2) // tiny pool to stress page re-reads
		order := rng.Perm(len(recs))
		for _, i := range order {
			c := newCursor(pool, recs[i].ref)
			got, err := c.next(len(recs[i].data))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, recs[i].data) {
				t.Fatalf("trial %d: record %d corrupted", trial, i)
			}
			c.close()
		}
	}
}
