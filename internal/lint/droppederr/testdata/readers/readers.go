// Fixture for the capture-reader entry points: the salvage-mode
// readers added by the degraded-input resilience layer return both an
// error and a *salvage.Report, and discarding either hides truncated
// or mis-accounted traces. The call shapes mirror cmd/netfail-analyze
// before the -lenient wiring.
package readers

import (
	"io"

	"netfail/internal/frame"
	"netfail/internal/netsim"
	"netfail/internal/salvage"
)

// load loses salvage accounting four different ways.
func load(r io.Reader) []netsim.CapturedLSP {
	// Blank-binding the strict reader's error: a torn capture reads
	// as a shorter capture.
	lsps, _ := netsim.ReadLSPLog(r) // want `error returned by netsim\.ReadLSPLog is assigned to the blank identifier`

	// Blank-binding the lenient reader's report: the analysis never
	// learns records were dropped.
	salvaged, _, err := netsim.ReadLSPLogLenient(r) // want `salvage report returned by netsim\.ReadLSPLogLenient is assigned to the blank identifier; dropped-record accounting is lost`
	if err != nil {
		return lsps
	}

	// Blank-binding both: flagged once per discarded result.
	again, _, _ := netsim.ReadLSPLogLenient(r) // want `salvage report returned by netsim\.ReadLSPLogLenient is assigned to the blank identifier; dropped-record accounting is lost` `error returned by netsim\.ReadLSPLogLenient is assigned to the blank identifier`

	// Bare statement: everything the manifest reader found vanishes.
	netsim.ReadManifest(r) // want `error returned by netsim\.ReadManifest is silently discarded; a swallowed parse error silently shortens the trace`

	return append(append(lsps, salvaged...), again...)
}

// frames loses a framed file's damage three ways: the one reader
// behind the WAL, capture segments and store postings is traced whole.
func frames(r io.Reader) []byte {
	fr := frame.NewReader(r, "seg", 8, true, nil)
	fr.Header("NFSEG1\n")   // want `error returned by frame\.Header is silently discarded; a swallowed parse error silently shortens the trace`
	payload, _ := fr.Next() // want `error returned by frame\.Next is assigned to the blank identifier`
	_ = fr.Report()         // want `salvage report returned by frame\.Report is assigned to the blank identifier; dropped-record accounting is lost`
	return payload
}

// handled shows the accepted shapes: checked errors, consumed
// reports, and non-reader callees in the same packages staying out of
// scope.
func handled(w io.Writer, r io.Reader) (*salvage.Report, error) {
	lsps, rep, err := netsim.ReadLSPLogLenient(r)
	if err != nil {
		return nil, err
	}
	// WriteLSPLog is not a capture reader: only the pinned entry
	// points are traced in this package.
	_ = netsim.WriteLSPLog(w, lsps)
	return rep, nil
}
