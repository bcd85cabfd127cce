package mcn

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// Concurrent queries against one opened database must be safe and agree
// with each other (run with -race).
func TestConcurrentQueriesOnSharedDatabase(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 2_000, Facilities: 300, D: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "conc.mcn")
	if err := CreateDatabase(g, path); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabaseOptions(path, 0.02, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	queries := RandomQueries(g, 8, 13)
	ctx := context.Background()
	agg := WeightedSum(0.5, 0.3, 0.2)

	// Reference answers, computed sequentially.
	wantSky := make([][]FacilityID, len(queries))
	wantTop := make([][]FacilityID, len(queries))
	for i, q := range queries {
		sky, err := db.Skyline(ctx, q, WithEngine(CEA))
		if err != nil {
			t.Fatal(err)
		}
		wantSky[i] = idsSorted(sky)
		top, err := db.TopK(ctx, q, agg, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantTop[i] = ids(top)
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (w + r) % len(queries)
				sky, err := db.Skyline(ctx, queries[i], WithEngine(CEA))
				if err != nil {
					t.Errorf("concurrent skyline: %v", err)
					return
				}
				if got := idsSorted(sky); !reflect.DeepEqual(got, wantSky[i]) {
					t.Errorf("query %d: concurrent skyline %v != sequential %v", i, got, wantSky[i])
					return
				}
				top, err := db.TopK(ctx, queries[i], agg, 3)
				if err != nil {
					t.Errorf("concurrent topk: %v", err)
					return
				}
				if got := ids(top); !reflect.DeepEqual(got, wantTop[i]) {
					t.Errorf("query %d: concurrent top-k %v != sequential %v", i, got, wantTop[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
