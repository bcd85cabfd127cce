package storage

import (
	"sync/atomic"
	"time"
)

// LatencyDevice wraps a Device with a fixed service time per read and a
// bounded number of concurrently serviced reads — the behaviour of a real
// block device with a command queue (a cloud volume or SATA SSD: every read
// costs its latency, and at most queueDepth requests make progress at once;
// the rest wait in the queue). The coalescing tests use it to keep a read in
// flight long enough for concurrent readers of the same page to overlap.
// Writes and allocation pass through untouched.
type LatencyDevice struct {
	dev     Device
	latency time.Duration
	queue   chan struct{}
	reads   atomic.Int64
}

// NewLatencyDevice wraps dev with latency per read and queueDepth concurrent
// reads (values < 1 select depth 1).
func NewLatencyDevice(dev Device, latency time.Duration, queueDepth int) *LatencyDevice {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &LatencyDevice{dev: dev, latency: latency, queue: make(chan struct{}, queueDepth)}
}

// Reads returns the number of reads the device has serviced.
func (d *LatencyDevice) Reads() int64 { return d.reads.Load() }

// ReadPage implements Device: it waits for a queue slot, pays the service
// latency and then reads the wrapped device.
func (d *LatencyDevice) ReadPage(id PageID, buf []byte) error {
	d.queue <- struct{}{}
	time.Sleep(d.latency)
	err := d.dev.ReadPage(id, buf)
	<-d.queue
	d.reads.Add(1)
	return err
}

// WritePage implements Device.
func (d *LatencyDevice) WritePage(id PageID, buf []byte) error { return d.dev.WritePage(id, buf) }

// Alloc implements Device.
func (d *LatencyDevice) Alloc() (PageID, error) { return d.dev.Alloc() }

// NumPages implements Device.
func (d *LatencyDevice) NumPages() int { return d.dev.NumPages() }

// Close implements Device.
func (d *LatencyDevice) Close() error { return d.dev.Close() }
