//go:build unix

package mcn

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// A database file gets the permissions os.Create gives a file in the same
// directory — 0666 less the umask — under a restrictive umask and a
// permissive one alike.
func TestCreateDatabaseHonoursUmask(t *testing.T) {
	g, err := Synthetic(SyntheticConfig{Nodes: 300, Facilities: 40, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range []int{0o077, 0o022} {
		t.Run(fmt.Sprintf("umask=%03o", mask), func(t *testing.T) {
			dir := t.TempDir()
			defer syscall.Umask(syscall.Umask(mask))
			db := filepath.Join(dir, "city.mcn")
			if err := CreateDatabase(g, db); err != nil {
				t.Fatal(err)
			}
			sibling, err := os.Create(filepath.Join(dir, "sibling"))
			if err != nil {
				t.Fatal(err)
			}
			sibling.Close()
			dbInfo, err := os.Stat(db)
			if err != nil {
				t.Fatal(err)
			}
			sibInfo, err := os.Stat(sibling.Name())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dbInfo.Mode().Perm(), sibInfo.Mode().Perm(); got != want {
				t.Errorf("database mode %v, os.Create gives %v", got, want)
			}
			if got, want := dbInfo.Mode().Perm(), os.FileMode(0o666&^mask); got != want {
				t.Errorf("database mode %v, want 0666 less the umask, %v", got, want)
			}
		})
	}
}
