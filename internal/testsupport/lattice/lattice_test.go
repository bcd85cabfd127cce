package lattice

import "testing"

// TestLattice is the whole table: every row, every query kind, on the
// named instances, the generator's first instances, integer and continuous,
// and the large shape in both directions. A pruning comparison that never pruned would compare
// nothing, so the run must prune on a bounds row, and on a time row under
// the network's own index and under the shared one.
func TestLattice(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	instances := Named()
	for seed := int64(0); seed < int64(n); seed++ {
		instances = append(instances, Generated(seed))
	}
	for seed := int64(0); seed < int64(n/3); seed++ {
		instances = append(instances, Continuous(seed))
	}
	instances = append(instances, Large(false, 1), Large(true, 1))
	var pruned Pruned
	for _, in := range instances {
		p := Check(t, in, Select{})
		pruned.Bounds += p.Bounds
		pruned.Own += p.Own
		pruned.Shared += p.Shared
	}
	if pruned.Bounds == 0 || pruned.Own == 0 || pruned.Shared == 0 {
		t.Errorf("pruned %+v; a comparison whose count is 0 compared nothing", pruned)
	}
}

// FuzzLattice checks the rows of a mask — bit i is row i, none means all —
// on the generator's instance for a seed. The seeds below are the first
// generated instances that caught the two wrong answers the lattice found:
// a dominated facility in a multi-source skyline, and an unreachable insert
// in a maintainer's top-k.
func FuzzLattice(f *testing.F) {
	f.Add(int64(23), uint64(0))
	f.Add(int64(3), uint64(MaintainerRows))
	f.Add(int64(7), uint64(SourceRows("disk 1%", "disk/wrapped")))
	f.Add(int64(-5), uint64(TimeRows))
	f.Fuzz(func(t *testing.T, seed int64, mask uint64) {
		Check(t, Generated(seed), Select{Rows: Rows(mask)})
	})
}
