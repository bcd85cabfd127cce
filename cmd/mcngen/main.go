// Command mcngen generates a synthetic multi-cost road network with
// clustered facilities (the paper's Sec. VI workload profile) and writes it
// as a disk database in the paper's storage format.
//
// Usage:
//
//	mcngen -out city.mcn                          # paper defaults, scaled down
//	mcngen -nodes 175000 -facilities 100000 \
//	       -d 4 -dist anti-correlated -out sf.mcn # full paper scale
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mcn"
)

func main() {
	log.SetFlags(0)
	var (
		out        = flag.String("out", "network.mcn", "output path (.mcn database, or .txt for the text interchange format)")
		in         = flag.String("in", "", "import a text-format network instead of generating one")
		nodes      = flag.Int("nodes", 20_000, "approximate node count")
		facilities = flag.Int("facilities", 10_000, "facility count")
		clusters   = flag.Int("clusters", 10, "facility clusters")
		d          = flag.Int("d", 4, "number of cost types (2-5 in the paper)")
		dist       = flag.String("dist", "anti-correlated", "edge-cost distribution: independent|correlated|anti-correlated")
		directed   = flag.Bool("directed", false, "generate one-way edges")
		seed       = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	var g *mcn.Graph
	var err error
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		g, err = mcn.ReadText(f)
		f.Close()
		if err != nil {
			log.Fatalf("import %s: %v", *in, err)
		}
	} else {
		g, err = mcn.Synthetic(mcn.SyntheticConfig{
			Nodes:      *nodes,
			Facilities: *facilities,
			Clusters:   *clusters,
			D:          *d,
			Dist:       *dist,
			Directed:   *directed,
			Seed:       *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	if strings.HasSuffix(*out, ".txt") {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := mcn.WriteText(f, g); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d nodes, %d edges, %d facilities, d=%d\n",
			*out, g.NumNodes(), g.NumEdges(), g.NumFacilities(), g.D())
		return
	}
	start := time.Now()
	is, err := mcn.CreateDatabaseIndexed(g, *out)
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(start)
	fmt.Printf("wrote %s: %d nodes, %d edges, %d facilities, d=%d\n",
		*out, g.NumNodes(), g.NumEdges(), g.NumFacilities(), g.D())
	// The index is built alongside the record layout, so the database's
	// build time is not the sum of the two.
	fmt.Printf("pruning index: %d bytes, built in %v; database built in %v\n",
		is.BoundsBytes, is.BuildTime.Round(time.Millisecond), built.Round(time.Millisecond))
}
