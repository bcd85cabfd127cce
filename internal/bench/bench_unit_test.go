package bench

import (
	"bytes"
	"strings"
	"testing"

	"mcn/internal/gen"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.01, Queries: 3, LatencyMS: 1, Seed: 7}
}

func TestBuildDataset(t *testing.T) {
	cfg := tiny()
	ds, err := BuildDataset(cfg.DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Queries) != cfg.Queries {
		t.Errorf("queries = %d, want %d", len(ds.Queries), cfg.Queries)
	}
	if len(ds.Aggs) != cfg.Queries {
		t.Errorf("aggs = %d, want %d", len(ds.Aggs), cfg.Queries)
	}
	if ds.Dev.NumPages() == 0 {
		t.Error("dataset device is empty")
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "fig12", "ablation", "baseline"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("have %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
		if _, ok := Find(id); !ok {
			t.Errorf("Find(%q) failed", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted an unknown id")
	}
}

// Each experiment must run end-to-end on a tiny config and produce rows with
// positive measurements.
func TestExperimentsRunTiny(t *testing.T) {
	cfg := tiny()
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			points, err := exp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) == 0 {
				t.Fatal("no points")
			}
			for _, pt := range points {
				if len(pt.Rows) < 2 {
					t.Fatalf("%s: %d rows", pt.Param, len(pt.Rows))
				}
				for _, r := range pt.Rows {
					if r.PhysIO <= 0 || r.LogicalIO <= 0 {
						t.Errorf("%s/%s: non-positive I/O %+v", pt.Param, r.Algo, r)
					}
					if r.SimSeconds <= 0 {
						t.Errorf("%s/%s: non-positive sim time", pt.Param, r.Algo)
					}
				}
			}
		})
	}
}

// CEA must beat LSA on physical I/O at the default point of the tiny config.
func TestCEABeatsLSAOnIO(t *testing.T) {
	cfg := tiny()
	cfg.Queries = 5
	w := cfg.DefaultWorkload()
	ds, err := BuildDataset(w)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := runPoint("defaults", w, skylineQuery, cfg.LatencyMS)
	if err != nil {
		t.Fatal(err)
	}
	_ = ds
	lsa, cea := pt.Rows[0], pt.Rows[1]
	if cea.PhysIO >= lsa.PhysIO {
		t.Errorf("CEA phys I/O (%.1f) not below LSA (%.1f)", cea.PhysIO, lsa.PhysIO)
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	exp := Experiment{ID: "x", Title: "Test experiment"}
	points := []Point{{
		Param: "p=1",
		Rows: []Row{
			{Algo: "LSA", SimSeconds: 2, PhysIO: 100, LogicalIO: 200, CPUSeconds: 0.01, ResultSize: 3},
			{Algo: "CEA", SimSeconds: 1, PhysIO: 50, LogicalIO: 80, CPUSeconds: 0.005, ResultSize: 3},
		},
	}}
	var tbl bytes.Buffer
	WriteTable(&tbl, exp, points)
	out := tbl.String()
	for _, want := range []string{"Test experiment", "LSA", "CEA", "2.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	WriteCSV(&csv, exp, points, true)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,param,algo") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "x,p=1,LSA") {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestRatio(t *testing.T) {
	pt := Point{Rows: []Row{{SimSeconds: 3}, {SimSeconds: 1.5}}}
	if r := pt.Ratio(); r != 2 {
		t.Errorf("Ratio = %g, want 2", r)
	}
	if r := (Point{}).Ratio(); r != 0 {
		t.Errorf("empty Ratio = %g, want 0", r)
	}
}

func TestDistributionsCoveredBySweep(t *testing.T) {
	if len(distSweep) != 3 {
		t.Fatal("distribution sweep must cover all three paper distributions")
	}
	seen := map[gen.Distribution]bool{}
	for _, d := range distSweep {
		seen[d] = true
	}
	for _, d := range []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		if !seen[d] {
			t.Errorf("distribution %v missing from sweep", d)
		}
	}
}
