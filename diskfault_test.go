package mcn

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcn/internal/testsupport/testnet"
)

// oracleQuery is one query against a disk network with its answer from the
// brute-force oracle: run returns nil when the network answers as the
// oracle does, the query's error when it fails, and a mismatch error when it
// answers wrongly.
type oracleQuery struct {
	name string
	run  func(n *Network) error
}

// errWrongAnswer marks an answer that differs from the oracle's.
var errWrongAnswer = errors.New("answer differs from the oracle's")

// sameScores reports whether got's scores equal want's, in order, to a
// relative 1e-9 (the oracle relaxes in another order than the expansions).
func sameScores(got []Facility, want []testnet.Ranked) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9*(1+math.Abs(want[i].Score)) {
			return false
		}
	}
	return true
}

// diskFaultDatabase writes a small synthetic network to a database file and
// returns its path with skyline, top-k and nearest queries on it, each
// checked against the oracle.
func diskFaultDatabase(t *testing.T) (string, []oracleQuery) {
	t.Helper()
	g, err := Synthetic(SyntheticConfig{Nodes: 1200, Facilities: 150, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fault.mcn")
	if err := CreateDatabase(g, path); err != nil {
		t.Fatal(err)
	}
	agg := WeightedSum(1, 2, 3)
	var qs []oracleQuery
	for i, loc := range RandomQueries(g, 8, 5) {
		sky := testnet.Skyline(g, loc)
		top := testnet.RankOf(testnet.AllCosts(g, loc), agg)
		top = top[:min(5, len(top))]
		ci := i % g.D()
		near := testnet.Nearest(g, loc, ci, 4)
		qs = append(qs,
			oracleQuery{fmt.Sprintf("skyline %v", loc), func(n *Network) error {
				res, err := n.Skyline(ctx, loc, WithEngine(CEA))
				if err != nil {
					return err
				}
				if !slices.Equal(idsSorted(res), sky) {
					return errWrongAnswer
				}
				return nil
			}},
			oracleQuery{fmt.Sprintf("top-5 %v", loc), func(n *Network) error {
				res, err := n.TopK(ctx, loc, agg, 5)
				if err != nil {
					return err
				}
				if !sameScores(res.Facilities, top) {
					return errWrongAnswer
				}
				return nil
			}},
			oracleQuery{fmt.Sprintf("nearest-4 cost %d %v", ci, loc), func(n *Network) error {
				got, err := n.Nearest(ctx, loc, ci, 4)
				if err != nil {
					return err
				}
				if !sameScores(got, near) {
					return errWrongAnswer
				}
				return nil
			}})
	}
	return path, qs
}

// Queries racing Close on a database file: four goroutines run skyline,
// top-k and nearest queries through the disk network while Close unmaps the
// file. Each answer is the oracle's or a storage failure wrapping
// os.ErrClosed; no query panics or reads an unmapped page (run with -race),
// and once Close has returned every query fails that way.
func TestQueriesRaceClose(t *testing.T) {
	path, qs := diskFaultDatabase(t)
	for round := 0; round < 3; round++ {
		db, err := OpenDatabaseOptions(path, 0.05, PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var answered atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; ; i++ {
					q := qs[i%len(qs)]
					err := q.run(db)
					if err == nil {
						answered.Add(1)
						continue
					}
					if !IsStorageFault(err) || !errors.Is(err, os.ErrClosed) {
						t.Errorf("round %d, %s: %v, want the oracle's answer or a storage failure wrapping os.ErrClosed", round, q.name, err)
					}
					return
				}
			}(w)
		}
		// Close once the queries are under way.
		deadline := time.Now().Add(10 * time.Second)
		for answered.Load() < 8 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		wg.Wait()
		if answered.Load() == 0 {
			t.Fatalf("round %d: no query answered before Close", round)
		}
		for _, q := range qs {
			if err := q.run(db); !IsStorageFault(err) || !errors.Is(err, os.ErrClosed) {
				t.Fatalf("round %d, %s after Close: %v, want a storage failure wrapping os.ErrClosed", round, q.name, err)
			}
		}
	}
}
