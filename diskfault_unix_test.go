//go:build unix

package mcn

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"mcn/internal/storage"
)

// A database file truncated behind an open network: the pages it no longer
// holds fault when touched, whether the pool maps them on a miss or a record
// decoder reads a page the pool still caches. Each query answers as the
// oracle does or fails with a storage failure wrapping io.ErrUnexpectedEOF,
// IOFailureStats counts one permanent failure per failed query, and the
// process does not crash. Cutting only the tables Open loads (bounds, rank
// and checksum tables, which no query reads) fails nothing; cutting into the
// data pages fails every query, since each starts with an edge-tree lookup
// and the trees follow the data.
func TestQueriesOverTruncatedDatabase(t *testing.T) {
	for _, tc := range []struct {
		buffer float64
		opts   PoolOptions
	}{
		{1, PoolOptions{}}, // every page cached: faults hit the decoders
		{0.05, PoolOptions{Policy: storage.PolicyLRU}}, // most reads miss: faults hit the pool's touch
		{0, PoolOptions{}}, // no cache: every read a miss
	} {
		t.Run(fmt.Sprintf("buffer=%g_%v", tc.buffer, tc.opts.Policy), func(t *testing.T) {
			path, qs := diskFaultDatabase(t)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			db, err := OpenDatabaseOptions(path, tc.buffer, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Warm the pool with every query, all answered as the oracle does.
			for _, q := range qs {
				if err := q.run(db); err != nil {
					t.Fatalf("%s before truncation: %v", q.name, err)
				}
			}
			for _, cut := range []struct {
				size int64
				fail bool
			}{
				{st.Size() - 4096, false}, // the checksum table's last page
				{st.Size() / 2, true},     // half the data and all the trees
			} {
				if err := os.Truncate(path, cut.size); err != nil {
					t.Fatal(err)
				}
				before, _ := db.IOFailureStats()
				failed := int64(0)
				for _, q := range qs {
					err := q.run(db)
					switch {
					case err == nil:
					case IsStorageFault(err) && errors.Is(err, io.ErrUnexpectedEOF):
						failed++
					default:
						t.Fatalf("truncated to %d bytes, %s: %v, want the oracle's answer or a storage failure wrapping io.ErrUnexpectedEOF", cut.size, q.name, err)
					}
				}
				if want := int64(0); cut.fail {
					want = int64(len(qs))
					if failed != want {
						t.Errorf("truncated to %d bytes: %d of %d queries failed, want %d", cut.size, failed, len(qs), want)
					}
				} else if failed != 0 {
					t.Errorf("truncated to %d bytes: %d queries failed, want none", cut.size, failed)
				}
				after, _ := db.IOFailureStats()
				if got := after.Permanent - before.Permanent; got != failed || after.Checksum != before.Checksum {
					t.Errorf("truncated to %d bytes: %d failed queries, failure stats %+v → %+v, want one permanent failure each", cut.size, failed, before, after)
				}
			}
		})
	}
}
