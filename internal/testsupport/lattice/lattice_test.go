package lattice

import "testing"

// TestLattice is the whole table: every row, every query kind, on the
// named instances, the generator's first instances, integer and continuous,
// and the large shape in both directions. The wire rows run on the named
// and large instances and on the first 60 integer and 20 continuous ones,
// and so do the update-mix rows; the other in-process rows on all. A
// pruning comparison that never pruned would compare nothing, so the run
// must prune on a bounds row, on a time row under the network's own index
// and under the shared one, and on a wire row; the update-mix rows must
// read inside windows narrower than every version, hit the cache and find
// entries invalidated; and the run must put every wire kind on the wire,
// through every row and in every codec.
func TestLattice(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	all := append(Named(), Large(false, 1), Large(true, 1))
	for seed := int64(0); seed < 60; seed++ {
		all = append(all, Generated(seed))
	}
	for seed := int64(0); seed < 20; seed++ {
		all = append(all, Continuous(seed))
	}
	wired := len(all) // the instances the wire rows run on
	for seed := int64(60); seed < int64(n); seed++ {
		all = append(all, Generated(seed))
	}
	for seed := int64(20); seed < int64(n/3); seed++ {
		all = append(all, Continuous(seed))
	}
	reps := make([]Report, len(all))
	t.Run("instances", func(t *testing.T) {
		for i, in := range all {
			sel := Select{}
			if i < wired {
				sel.Rows = AllRows
			}
			t.Run(in.Name, func(t *testing.T) {
				t.Parallel()
				reps[i] = Check(t, in, sel)
			})
		}
	})
	var rep Report
	for _, r := range reps {
		rep.add(r)
	}
	if rep.Bounds == 0 || rep.Own == 0 || rep.Shared == 0 || rep.Served == 0 || rep.Narrow == 0 || rep.Hits == 0 || rep.Invalidated == 0 {
		t.Errorf("pruned %d, %d, %d, %d; %d narrow windows, %d cache hits, %d entries invalidated; a comparison whose count is 0 compared nothing",
			rep.Bounds, rep.Own, rep.Shared, rep.Served, rep.Narrow, rep.Hits, rep.Invalidated)
	}
	var never []string
	asked := func(key string) {
		if rep.Asked[key] == 0 {
			never = append(never, key)
		}
	}
	for _, name := range targetNames[served:] {
		asked("row wire/" + name)
	}
	for _, k := range wireKinds {
		asked("kind " + k.String())
	}
	for _, c := range codecs {
		asked("codec " + c.name)
	}
	if len(never) > 0 {
		t.Errorf("never asked over the wire: %v", never)
	}
	t.Logf("wire requests by row, kind and codec, and kinds the wire could not carry: %v", rep.Asked)
}

// The update-mix rows alone, on the named instances: what `make
// update-smoke` runs of this package under the race detector.
func TestUpdateMix(t *testing.T) {
	for _, in := range Named() {
		Check(t, in, Select{Rows: UpdateRows})
	}
}

// FuzzLattice checks the rows of a mask (bit i%64 of word i/64 is row i;
// none, every in-process row but the update-mix ones) on the instance for a
// seed: -1 … -len(Named()) the named ones, any other the generator's. The
// seeds are the first generated instances that caught the in-process rows'
// two wrong answers, a dominated facility in a multi-source skyline and an
// unreachable insert in a maintainer's top-k, the named instance on which
// the wire rows found JSON refusing the +Inf score of a facility no location
// reaches, and one for the update-mix rows.
func FuzzLattice(f *testing.F) {
	f.Add(int64(23), uint64(0), uint64(0))
	f.Add(int64(3), MaintainerRows[0], MaintainerRows[1])
	disk := SourceRows("disk 1%", "disk/wrapped")
	f.Add(int64(7), disk[0], disk[1])
	f.Add(int64(-8), TimeRows[0], TimeRows[1])
	f.Add(int64(-1), WireRows[0], WireRows[1])
	f.Add(int64(-2), UpdateRows[0], UpdateRows[1])
	named := Named()
	f.Fuzz(func(t *testing.T, seed int64, lo, hi uint64) {
		in := Generated(seed)
		if i := -seed - 1; i >= 0 && i < int64(len(named)) {
			in = named[i]
		}
		Check(t, in, Select{Rows: Rows{lo, hi}})
	})
}
