package storage

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// errScripted is the device error scriptDevice fails its reads with.
var errScripted = errors.New("scripted read failure")

// scriptDevice wraps a device with per-page scripted failures and
// an optional gate that holds every read until released, so tests can park a
// miss mid-read while other readers queue behind it.
type scriptDevice struct {
	Device
	gate chan struct{} // nil = no gating

	mu    sync.Mutex
	fails map[PageID]int // remaining failures per page
}

func newScriptDevice(t *testing.T, pages int) *scriptDevice {
	t.Helper()
	dev := NewMemDevice()
	buf := make([]byte, PageSize)
	for i := 0; i < pages; i++ {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		if err := dev.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return &scriptDevice{Device: dev, fails: make(map[PageID]int)}
}

func (d *scriptDevice) setFails(id PageID, n int) {
	d.mu.Lock()
	d.fails[id] = n
	d.mu.Unlock()
}

func (d *scriptDevice) ReadPage(id PageID, buf []byte) error {
	if d.gate != nil {
		<-d.gate
	}
	d.mu.Lock()
	n := d.fails[id]
	if n > 0 {
		d.fails[id] = n - 1
		d.mu.Unlock()
		return errScripted
	}
	d.mu.Unlock()
	return d.Device.ReadPage(id, buf)
}

// A device error that already names the storage layer is surfaced as it is,
// not prefixed a second time.
func TestStorageErrorNotDoublePrefixed(t *testing.T) {
	pool := NewBufferPool(stampDevice(t, 2), 2)
	_, err := readStamp(pool, 9) // beyond the device
	if err == nil || strings.Count(err.Error(), "storage:") != 1 {
		t.Fatalf("read of a missing page: %v, want one storage: prefix", err)
	}
}
