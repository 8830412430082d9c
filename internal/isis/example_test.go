package isis_test

import (
	"fmt"

	"netfail/internal/isis"
	"netfail/internal/topo"
)

// ExampleLSP encodes a link-state PDU to its ISO 10589 wire format
// and decodes it back — what flows between the simulated routers and
// the passive listener.
func ExampleLSP() {
	lsp := isis.NewLSP(
		topo.SystemIDFromIndex(1), 7, "riv-core-01",
		[]isis.ISNeighbor{{System: topo.SystemIDFromIndex(2), Metric: 10}},
		[]isis.IPPrefix{{Metric: 10, Addr: 137<<24 | 164<<16, Length: 31}},
	)
	wire, err := lsp.AppendEncode(nil)
	if err != nil {
		panic(err)
	}
	var decoded isis.LSP
	if err := decoded.DecodeFromBytes(wire); err != nil {
		panic(err)
	}
	fmt.Printf("%s advertises %d neighbor, %d prefix\n",
		decoded.Hostname, len(decoded.Neighbors), len(decoded.Prefixes))
	fmt.Printf("prefix: %s\n", decoded.Prefixes[0])
	// Output:
	// riv-core-01 advertises 1 neighbor, 1 prefix
	// prefix: 137.164.0.0/31
}
