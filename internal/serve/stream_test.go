package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mcn"
	"mcn/internal/wire"
)

// streamLine is one NDJSON line of /skyline?stream=1: a facility, the
// terminal done-line, or an in-band error trailer.
type streamLine struct {
	Done  bool   `json:"done"`
	Error string `json:"error"`
}

var latencyField = regexp.MustCompile(`"latency_ms":[^,}]*`)

// The one test of the suite on a real socket, so that net/http's own flush
// path stays covered: a skyline streamed over it is what the in-memory
// network streams (which the lattice's wire rows hold to the oracle), byte
// for byte but for the latency, facility lines then a done-line.
func TestStreamSkylineNDJSON(t *testing.T) {
	handlers, _ := testServers(t)
	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(h)
			defer ts.Close()
			stream := func(c *http.Client, base string) string {
				t.Helper()
				resp, err := c.Get(base + "/skyline?stream=1&edge=17&t=0.25")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
					t.Fatalf("status %d, content type %q (%v)", resp.StatusCode, resp.Header.Get("Content-Type"), err)
				}
				return latencyField.ReplaceAllString(string(body), `"latency_ms":0`)
			}
			mem := newTestServer(t, h)
			got, want := stream(ts.Client(), ts.URL), stream(mem.Client(), mem.URL)
			if got != want || strings.Count(got, "\n") < 2 || !strings.Contains(got, `"done":true`) {
				t.Fatalf("streamed over a socket:\n%s\nover memnet:\n%s", got, want)
			}
		})
	}
}

// A top-k stream stops after k facility lines: /topk?stream=1 with k
// smaller than the answer delivers the buffered top k, in order, then a
// done-line that counts k.
func TestStreamTopKStopsAtK(t *testing.T) {
	handlers, _ := testServers(t)
	for name, h := range handlers {
		ts := newTestServer(t, h)
		for _, k := range []int{1, 2, 5} {
			path := fmt.Sprintf("/topk?edge=3&k=%d&weights=1,2,1", k)
			var want wire.Result
			getJSON(t, ts, path, http.StatusOK, &want)
			if len(want.Facilities) != k {
				t.Fatalf("%s: GET %s: %d facilities, want %d", name, path, len(want.Facilities), k)
			}
			resp, err := ts.Client().Get(ts.URL + path + "&stream=1")
			if err != nil {
				t.Fatal(err)
			}
			var got []mcn.FacilityID
			done := -1
			for dec := json.NewDecoder(resp.Body); ; {
				var line struct {
					wire.Facility
					Done  bool
					Count int
				}
				if err := dec.Decode(&line); err == io.EOF {
					break
				} else if err != nil || done >= 0 {
					t.Fatalf("%s: GET %s&stream=1: line after the done-line or undecodable (%v)", name, path, err)
				}
				if line.Done {
					done = line.Count
				} else {
					got = append(got, line.ID)
				}
			}
			resp.Body.Close()
			if !reflect.DeepEqual(got, resultIDs(want)) || done != k {
				t.Errorf("%s: GET %s&stream=1: facilities %v, done count %d; buffered %v", name, path, got, done, resultIDs(want))
			}
		}
	}
}

// Parameter validation still happens before any NDJSON is written, and a
// microscopic per-request deadline surfaces as an in-band error trailer
// rather than a hung or silently truncated stream.
func TestStreamSkylineValidationAndDeadline(t *testing.T) {
	handlers, _ := testServers(t)
	ts := newTestServer(t, handlers["memory"])

	// stream=0/false selects the ordinary buffered JSON endpoint.
	for _, path := range []string{"/skyline?stream=0&edge=17", "/skyline?stream=false&edge=17"} {
		var res map[string]any
		getJSON(t, ts, path, http.StatusOK, &res)
	}

	for _, path := range []string{
		"/skyline?stream=1",                        // missing edge
		"/skyline?stream=1&edge=1&timeout_ms=zero", // bad timeout
		"/skyline?stream=1&edge=1&timeout_ms=-5",   // bad timeout
		"/skyline?stream=yes&edge=1",               // bad stream flag
	} {
		if got := ts.status(t, path); got != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, got)
		}
	}

	// A tight per-request deadline must terminate the stream decisively:
	// either the query beat the deadline (clean done-line) or it was cut off
	// (error trailer) — exactly one of the two, never a stream that just
	// stops.
	resp, err := ts.Client().Get(ts.URL + "/skyline?stream=1&edge=17&timeout_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawError, sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			sawError = true
		}
		if line.Done {
			sawDone = true
		}
	}
	if sawDone && sawError {
		t.Fatal("stream has both a done-line and an error trailer")
	}
	if !sawDone && !sawError {
		t.Fatal("deadline stream ended with neither done nor error line")
	}
}

// /stats exposes per-shard buffer-pool counters on disk-backed networks
// only; after traffic, the shard sums must be non-trivial.
func TestStatsPoolShards(t *testing.T) {
	handlers, _ := testServers(t)

	var stats map[string]any
	getJSON(t, newTestServer(t, handlers["memory"]), "/stats", http.StatusOK, &stats)
	if stats["pool_shards"] != nil {
		t.Error("in-memory /stats reported pool_shards")
	}
	disk := newTestServer(t, handlers["disk"])
	if got := disk.status(t, "/skyline?edge=17&t=0.25"); got != http.StatusOK {
		t.Fatalf("disk skyline: status %d", got)
	}
	getJSON(t, disk, "/stats", http.StatusOK, &stats)
	raw, ok := stats["pool_shards"].([]any)
	if !ok || len(raw) == 0 {
		t.Fatalf("disk /stats pool_shards = %v, want a non-empty array", stats["pool_shards"])
	}
	var logical float64
	for _, entry := range raw {
		shard, ok := entry.(map[string]any)
		if !ok {
			t.Fatalf("shard entry %v is not an object", entry)
		}
		for _, key := range []string{"logical", "physical", "hits", "evictions", "coalesced"} {
			if _, ok := shard[key]; !ok {
				t.Fatalf("shard entry missing %q: %v", key, shard)
			}
		}
		logical += shard["logical"].(float64)
	}
	if logical == 0 {
		t.Error("no logical reads recorded across shards after a disk query")
	}
}
