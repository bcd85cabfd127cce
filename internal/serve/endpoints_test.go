package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mcn"
	"mcn/internal/wire"
)

// /topk?stream=1 must deliver the same facilities, in the same ascending
// score order, as TopKSeq, one NDJSON line each with the score present.
func TestStreamTopKNDJSON(t *testing.T) {
	handlers, ref := testServers(t)
	loc := mcn.Location{Edge: 17, T: 0.25}
	agg := mcn.WeightedSum(1, 1, 1)
	var want []mcn.FacilityID
	for f, err := range ref.TopKSeq(ctx, loc, agg) {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f.ID)
		if len(want) == 5 {
			break
		}
	}
	if len(want) < 5 {
		t.Fatal("reference top-k too small; pick another location")
	}

	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(h)
			defer ts.Close()

			resp, err := ts.Client().Get(ts.URL + "/topk?stream=1&edge=17&t=0.25&k=5&weights=1,1,1")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("content type %q, want application/x-ndjson", ct)
			}

			var got []mcn.FacilityID
			lastScore := -1.0
			var done *streamLine
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var line struct {
					streamLine
					Score float64 `json:"score"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
				}
				switch {
				case line.Error != "":
					t.Fatalf("in-band error: %s", line.Error)
				case line.Done:
					done = &line.streamLine
				default:
					if line.ID == nil {
						t.Fatalf("facility line without id: %q", sc.Text())
					}
					if line.Score < lastScore {
						t.Fatalf("scores not ascending: %g after %g", line.Score, lastScore)
					}
					lastScore = line.Score
					got = append(got, *line.ID)
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if done == nil {
				t.Fatal("stream ended without a terminal done-line")
			}
			if done.Count != len(got) {
				t.Fatalf("terminal count %d, saw %d facilities", done.Count, len(got))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streamed %v, want iterator order %v", got, want)
			}
		})
	}
}

// The multi-source endpoints must answer with the same facilities the
// library returns directly, over both backends.
func TestMultiSourceEndpoints(t *testing.T) {
	handlers, ref := testServers(t)
	locs := []mcn.Location{{Edge: 3, T: 0.5}, {Edge: 40, T: 0.1}, {Edge: 77, T: 0.9}}

	wantSky, err := ref.MultiSourceSkyline(ctx, 1, locs, mcn.WithEngine(mcn.CEA))
	if err != nil {
		t.Fatal(err)
	}
	wantTop, err := ref.MultiSourceTopK(ctx, 1, locs, mcn.WeightedSum(1, 1, 1), 3)
	if err != nil {
		t.Fatal(err)
	}

	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(h)
			defer ts.Close()

			var sky wire.Result
			getJSON(t, ts, "/multisource/skyline?cost=1&edges=3,40,77&ts=0.5,0.1,0.9", http.StatusOK, &sky)
			if sky.Query != "multisource_skyline" {
				t.Errorf("query = %q", sky.Query)
			}
			if !reflect.DeepEqual(resultIDs(sky), libIDs(wantSky)) {
				t.Errorf("multisource skyline ids %v, want %v", resultIDs(sky), libIDs(wantSky))
			}

			var top wire.Result
			getJSON(t, ts, "/multisource/topk?cost=1&edges=3,40,77&ts=0.5,0.1,0.9&k=3&weights=1,1,1", http.StatusOK, &top)
			if top.Query != "multisource_topk" {
				t.Errorf("query = %q", top.Query)
			}
			if !reflect.DeepEqual(resultIDs(top), libIDs(wantTop)) {
				t.Errorf("multisource topk ids %v, want %v", resultIDs(top), libIDs(wantTop))
			}
		})
	}
}

// timeServer builds a serve handler with the period endpoints enabled over a
// synthetic time-dependent network, plus the TimeNetwork for references.
func timeServer(t testing.TB) (http.Handler, *mcn.TimeNetwork) {
	return timeServerTimeout(t, time.Minute)
}

// timeServerTimeout is timeServer with the given server-side query timeout.
func timeServerTimeout(t testing.TB, timeout time.Duration) (http.Handler, *mcn.TimeNetwork) {
	t.Helper()
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 600, Facilities: 100, D: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tnet := mcn.TimeDependent(g)
	// Dense profiles: enough of the network must be time-dependent for the
	// preferred set at the probe location to actually change over the day.
	if err := mcn.AttachSyntheticProfiles(tnet, 600, 11); err != nil {
		t.Fatal(err)
	}
	srv := New(mcn.FromGraph(g), Config{Workers: 4, Timeout: timeout, TimeNet: tnet})
	return srv.Handler(), tnet
}

// The period endpoints must reproduce the library's interval sweep exactly:
// same interval boundaries, same facilities per interval.
func TestPeriodEndpoints(t *testing.T) {
	h, tnet := timeServer(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	loc := mcn.Location{Edge: 17, T: 0.25}

	wantSky, err := tnet.SkylineOverPeriod(ctx, loc, 5, 21, mcn.QueryOptions(mcn.WithEngine(mcn.CEA)))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSky) < 2 {
		t.Fatalf("reference sweep has %d intervals; want a non-trivial time axis", len(wantSky))
	}

	var sky wire.PeriodResult
	getJSON(t, ts, "/skyline/period?edge=17&t=0.25&from=5&to=21", http.StatusOK, &sky)
	if sky.Query != "skyline_over_period" || sky.Count != len(wantSky) {
		t.Fatalf("period skyline: query %q count %d, want skyline_over_period %d", sky.Query, sky.Count, len(wantSky))
	}
	for i, iv := range sky.Intervals {
		if iv.From != wantSky[i].From || iv.To != wantSky[i].To {
			t.Errorf("interval %d bounds [%g,%g), want [%g,%g)", i, iv.From, iv.To, wantSky[i].From, wantSky[i].To)
		}
		gotIDs := make([]mcn.FacilityID, len(iv.Facilities))
		for j, f := range iv.Facilities {
			gotIDs[j] = f.ID
		}
		if !reflect.DeepEqual(gotIDs, libIDs(wantSky[i].Result)) {
			t.Errorf("interval %d ids %v, want %v", i, gotIDs, libIDs(wantSky[i].Result))
		}
	}

	wantTop, err := tnet.TopKOverPeriod(ctx, loc, mcn.WeightedSum(1, 1, 1), 3, 5, 21, mcn.QueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	var top wire.PeriodResult
	getJSON(t, ts, "/topk/period?edge=17&t=0.25&from=5&to=21&k=3&weights=1,1,1", http.StatusOK, &top)
	if top.Query != "topk_over_period" || top.Count != len(wantTop) {
		t.Fatalf("period topk: query %q count %d, want topk_over_period %d", top.Query, top.Count, len(wantTop))
	}

	// Without a TimeNetwork the period routes don't exist.
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 300, Facilities: 40, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain := httptest.NewServer(New(mcn.FromGraph(g), Config{Workers: 1, Timeout: time.Minute}).Handler())
	defer plain.Close()
	resp, err := plain.Client().Get(plain.URL + "/skyline/period?edge=1&from=5&to=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("period endpoint without -timedep: status %d, want 404", resp.StatusCode)
	}
}
