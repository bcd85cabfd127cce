package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"mcn"
	"mcn/internal/graph"
	"mcn/internal/testnet"
	"mcn/internal/wire"
)

// withinOracle returns, sorted, the facilities whose brute-force cost vector
// from loc fits budget component-wise.
func withinOracle(g *mcn.Graph, loc mcn.Location, budget mcn.Costs) []mcn.FacilityID {
	var out []mcn.FacilityID
	for p, c := range testnet.AllCosts(g, loc) {
		fits := true
		for i := range c {
			fits = fits && c[i] <= budget[i]
		}
		if fits {
			out = append(out, mcn.FacilityID(p))
		}
	}
	return out
}

func sortedIDs(ids []mcn.FacilityID) []mcn.FacilityID {
	slices.Sort(ids)
	return ids
}

// Within is the one query that reads the pruning index, and an in-memory
// network numbers its nodes in locality order, so an index left in the
// graph's numbering would prune the wrong nodes and silently drop answers.
// On a network whose locality order is not the identity, the facade's
// Within and WithinAt and the served /within must return exactly the
// facilities the brute-force oracle finds within budget.
func TestWithinMatchesOracleInLocalityOrder(t *testing.T) {
	g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 1_200, Facilities: 200, D: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	identity := true
	for r, v := range graph.LocalityOrder(g) {
		identity = identity && v == graph.NodeID(r)
	}
	if identity {
		t.Fatal("the locality order is the identity; the check is vacuous")
	}
	net := mcn.FromGraph(g)
	tnet := mcn.TimeDependent(g)
	if err := mcn.AttachSyntheticProfiles(tnet, 300, 11); err != nil {
		t.Fatal(err)
	}
	const at = 12
	snap, err := tnet.Snapshot(at)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(net, Config{Workers: 2, Timeout: time.Minute}).Handler())
	defer ts.Close()

	pruned := 0
	for _, edge := range []mcn.EdgeID{17, 301, 950} {
		loc := mcn.Location{Edge: edge, T: 0.25}
		// A radius that holds a handful of facilities, so the index prunes.
		near, err := net.Nearest(ctx, loc, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		r := 1.5 * near[len(near)-1].Costs[0]
		budget := mcn.Of(r, r, r)
		want := withinOracle(g, loc, budget)
		if len(want) == 0 {
			t.Fatalf("edge %d: the oracle finds nothing within %v", edge, budget)
		}

		res, err := net.Within(ctx, loc, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedIDs(res.IDs()); !slices.Equal(got, want) {
			t.Errorf("edge %d: Within %v, oracle %v", edge, got, want)
		}
		pruned += res.Stats.PrunedNodes

		var served wire.Result
		b := strconv.FormatFloat(r, 'g', -1, 64)
		getJSON(t, ts, fmt.Sprintf("/within?edge=%d&t=0.25&budget=%s,%s,%s", edge, b, b, b), http.StatusOK, &served)
		if got := sortedIDs(resultIDs(served)); !slices.Equal(got, want) {
			t.Errorf("edge %d: /within %v, oracle %v", edge, got, want)
		}

		res, err = tnet.WithinAt(ctx, loc, budget, at, mcn.QueryOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedIDs(res.IDs()), withinOracle(snap, loc, budget); !slices.Equal(got, want) {
			t.Errorf("edge %d: WithinAt %v, oracle at t=%d %v", edge, got, at, want)
		}
		pruned += res.Stats.PrunedNodes
	}
	if pruned == 0 {
		t.Error("the pruning index never pruned; the check is vacuous")
	}
}
