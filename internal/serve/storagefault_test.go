package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"mcn"
	"mcn/internal/storage"
	"mcn/internal/testsupport/fault"
	"mcn/internal/wire"
)

// A storage fault reaches a client of the serving tier as 500 "storage
// failure" in either codec, whatever the device's own error text: a page the
// device cannot read and a page that fails its checksum alike. A failure is
// never cached — the repeat fails again rather than hitting the result
// cache — and each corrupt read counts one checksum error in /stats. Once the
// fault clears, the same query answers 200 with the fault-free answer.
func TestStorageFaultThroughServer(t *testing.T) {
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 400, Facilities: 80, D: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	img, err := storage.BuildMem(g)
	if err != nil {
		t.Fatal(err)
	}
	loc := mcn.RandomQueries(g, 1, 2)[0]
	want, err := mcn.FromGraph(g).Skyline(ctx, loc)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		mark     func(*fault.Device, storage.PageID)
		checksum bool
	}{
		{"FailPage", (*fault.Device).FailPage, false},
		{"CorruptPage", (*fault.Device).CorruptPage, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd := fault.Wrap(img, fault.Options{Seed: 1})
			db, err := mcn.OpenDeviceOptions(fd, 0.05, mcn.PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.EnableResultCache(mcn.CacheOptions{})
			h := New(db, Config{Workers: 1, Timeout: time.Minute}).Handler()
			// Every page but the header, which is read at open, carries the
			// fault: the pool holds nothing yet, so the query's first page
			// read fails.
			markAll := func(mark func(*fault.Device, storage.PageID)) {
				for p := 1; p < img.NumPages(); p++ {
					mark(fd, storage.PageID(p))
				}
			}
			markAll(tc.mark)

			q := &wire.Request{Kind: wire.KindSkyline, Edge: int(loc.Edge), T: loc.T}
			frame, err := wire.EncodeRequest(q)
			if err != nil {
				t.Fatal(err)
			}
			get := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.URI(), nil))
				return rec
			}
			post := func() *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(frame))
				req.Header.Set("Content-Type", wire.ContentTypeBinary)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}
			checksumErrors := func() int64 {
				var stats struct {
					IO struct {
						Checksum int64 `json:"checksum_errors"`
					} `json:"io_failures"`
					Cache struct {
						Hits int64 `json:"hits"`
					} `json:"cache"`
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
				if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
					t.Fatalf("/stats: %v", err)
				}
				if stats.Cache.Hits != 0 {
					t.Fatalf("/stats: %d cache hits, want none while every query fails", stats.Cache.Hits)
				}
				return stats.IO.Checksum
			}

			for i := 0; i < 2; i++ { // the repeat must fail again, not hit the cache
				before := checksumErrors()
				rec := get()
				var env struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatalf("JSON %d: %v in %q", i, err, rec.Body)
				}
				if rec.Code != http.StatusInternalServerError || env.Error != "storage failure" {
					t.Fatalf("JSON %d: %d %q, want 500 \"storage failure\"", i, rec.Code, env.Error)
				}
				mid := checksumErrors()

				rec = post()
				resp := decodeBinaryResponse(t, rec.Body.Bytes())
				if rec.Code != http.StatusInternalServerError || resp.Status != http.StatusInternalServerError || resp.Message != "storage failure" {
					t.Fatalf("MCNB %d: %d, frame %d %q, want 500 \"storage failure\"", i, rec.Code, resp.Status, resp.Message)
				}
				if tc.checksum {
					if got := []int64{mid - before, checksumErrors() - mid}; got[0] != 1 || got[1] != 1 {
						t.Fatalf("round %d: checksum_errors rose by %v per failed read, want 1 each", i, got)
					}
				}
			}

			markAll((*fault.Device).ClearPage)
			rec := get()
			if rec.Code != http.StatusOK {
				t.Fatalf("after ClearPage: %d %s", rec.Code, rec.Body)
			}
			var res wire.Result
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			got, w := resultIDs(res), libIDs(want)
			slices.Sort(got)
			slices.Sort(w)
			if !slices.Equal(got, w) {
				t.Fatalf("after ClearPage: facilities %v, want the fault-free %v", got, w)
			}
		})
	}
}
