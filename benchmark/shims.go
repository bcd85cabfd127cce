package main

import (
	"net/http"
	"sync/atomic"
	"time"
)

// deviceShim times and counts the page reads a buffer pool issues to the
// device beneath it (the storage.Device seam under storage.OpenOptions).
// Reads are counted atomically because the traced in-process server reads
// from handler goroutines.
type deviceShim struct {
	Device
	reads atomic.Int64
	busy  atomic.Int64 // ns
}

func (d *deviceShim) ReadPage(id PageID, buf []byte) error {
	start := time.Now()
	err := d.Device.ReadPage(id, buf)
	d.busy.Add(int64(time.Since(start)))
	d.reads.Add(1)
	return err
}

// sourceShim times and counts the record fetches the core algorithms make on
// a disk-resident network (the expand.Source seam under core.Skyline and
// friends). It is used by the traced disk_paper pass only, which runs one
// query at a time. On the flat path a shim would hide the source's
// ZeroCopyRecords/EdgeCoster fast paths, so fetch time is not split out
// there.
type sourceShim struct {
	src   Source
	calls int64
	busy  time.Duration
}

func (s *sourceShim) D() int         { return s.src.D() }
func (s *sourceShim) Directed() bool { return s.src.Directed() }

func (s *sourceShim) Adjacency(v NodeID) ([]AdjEntry, error) {
	start := time.Now()
	out, err := s.src.Adjacency(v)
	s.busy += time.Since(start)
	s.calls++
	return out, err
}

func (s *sourceShim) Facilities(ref uint64, count int) ([]FacEntry, error) {
	start := time.Now()
	out, err := s.src.Facilities(ref, count)
	s.busy += time.Since(start)
	s.calls++
	return out, err
}

func (s *sourceShim) FacilityEdge(p FacilityID) (EdgeID, error) {
	start := time.Now()
	out, err := s.src.FacilityEdge(p)
	s.busy += time.Since(start)
	s.calls++
	return out, err
}

func (s *sourceShim) EdgeInfo(e EdgeID) (EdgeInfo, error) {
	start := time.Now()
	out, err := s.src.EdgeInfo(e)
	s.busy += time.Since(start)
	s.calls++
	return out, err
}

// spanHandler records one span per query served by next (not for the /readyz
// and /stats calls the harness makes). The traced passes run one client,
// whose current request index is *req.
func spanHandler(tr *tracer, name string, req *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr.off.Load() || r.URL.Path == pathReadyz || r.URL.Path == pathStats {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.add(name, int(req.Load()), start, time.Now())
	})
}
