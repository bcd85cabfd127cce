package cluster_test

import (
	"testing"

	"mcn/internal/cluster"
	"mcn/internal/testsupport/lattice"
)

// The gateway's answers are the differential lattice's gateway rows
// (internal/testsupport/lattice): each answer held to the oracle, to the
// in-process row the replicas run, and byte for byte to a replica asked
// directly. These tests keep their names and run the slice that holds their
// assertions, on instances past those the lattice's own test checks.

// How a request arrives cannot change its answer: the GET URL, the JSON
// body and the MCNB frame of one query decode to the same wire.Request and
// get the same answer, the MCNB one narrowed to float32, from a replica and,
// byte for byte, through the gateway.
func TestDecoderEquivalence(t *testing.T) {
	sel := lattice.Select{Rows: lattice.WireRowsOf("served", "gateway")}
	lattice.Sweep(t, 10, lattice.Generated, nil, sel)
	for _, directed := range []bool{false, true} {
		lattice.Check(t, lattice.Large(directed, 3), sel)
	}
}

// Every replica holds the whole network, so every query costs exactly one
// replica request, and every form of one query lands on the same replica.
func TestGatewaySendsOneLegPerQuery(t *testing.T) {
	lattice.Sweep(t, 10, lattice.Continuous, nil, lattice.Select{Rows: lattice.WireRowsOf("gateway")})
}

// Cross-codec negotiation through the gateway, both ways: a JSON body
// answered in MCNB and an MCNB frame answered in JSON, as the replica
// negotiates them, relayed byte for byte.
func TestGatewayV1QueryNegotiation(t *testing.T) {
	lattice.Sweep(t, 5, lattice.Generated, nil, lattice.Select{Rows: lattice.WireRowsOf("gateway"),
		Kinds: lattice.KindSet(lattice.Skyline, lattice.MultiSkyline, lattice.SkylinePeriod)})
}

// With one replica down or one shedding (503 with Retry-After), the gateway
// fails over and answers what a replica does, byte for byte.
func TestGatewayFailover(t *testing.T) {
	t.Run(cluster.PolicyHash.String(), func(t *testing.T) {
		lattice.Sweep(t, 10, lattice.Generated, nil, lattice.Select{
			Rows: lattice.WireRowsOf("gateway, one replica down", "gateway, one replica shedding"),
		})
	})
}
