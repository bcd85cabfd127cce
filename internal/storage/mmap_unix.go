//go:build unix

package storage

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only and shared, so the
// mapping reads the same page cache as every other reader of the file.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if int64(int(size)) != size {
		return nil, fmt.Errorf("%d bytes exceed the address space", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmapFile(data []byte) error { return syscall.Munmap(data) }
