//go:build !unix

package storage

import "os"

// mapFile maps nothing where unix mmap is unavailable: an opened device
// reads its pages with ReadAt.
func mapFile(*os.File, int64) ([]byte, error) { return nil, nil }

func unmapFile([]byte) error { return nil }
