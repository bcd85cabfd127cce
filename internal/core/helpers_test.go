package core

import (
	"testing"

	"mcn/internal/graph"
	"mcn/internal/storage"
)

// diskNetwork builds a disk-resident database for g and opens it with the
// given buffer fraction.
func diskNetwork(t *testing.T, g *graph.Graph, frac float64) *storage.Network {
	t.Helper()
	dev, err := storage.BuildMem(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := storage.OpenOptions(dev, frac, storage.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}
