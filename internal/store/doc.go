// Package store implements the indexed failure store: a persistent,
// queryable form of one analyzed campaign, written once at the end of
// an analysis run and then served many times.
//
// The batch pipeline answers every question — failures on a link,
// transitions in a window, messages during a flap — by re-running the
// whole extraction over the capture. The store persists the pipeline's
// outputs in time-ordered, CRC-framed binary segments (the same
// `A5 5A|len|crc` framing as the capture shards and the checkpoint
// WAL) with sparse time indexes and per-link/per-host posting lists
// that name each record's frame by its byte offset, so a per-link or
// per-host query reads its own frames and nothing else, and a window
// narrows them to the offsets the time index allows it — which for a
// quiet link on a given day is no frame at all.
//
// On-disk layout of a store directory:
//
//	store/
//	  manifest.json        params, catalogs, counts, precomputed tables
//	  failures.seg/.idx    sanitized failures, both sources, start-ordered
//	  failures.pst         link → failure frame offsets
//	  transitions.seg/.idx filtered transition streams, time-ordered
//	  transitions.pst      link → transition frame offsets
//	  messages-0000.seg/.idx  raw syslog lines, one segment per capture
//	  messages-0000.pst       shard, host → message frame offsets
//
// Records reference links, reporters, and hosts by ordinal into the
// manifest's catalogs. Segments reuse the capture reader/writer pair,
// inheriting its strict/lenient modes and salvage accounting; the
// posting files have their own framed format (postings.go) with the
// same convention: the strict reader fails with an offset-accurate
// error, the lenient reader resynchronizes and accounts every skip in
// a salvage.Report. Both indexes and postings are advisory — a store
// with damaged or missing index files still answers every query by
// scanning, and a leniently opened store reads damaged postings as
// missing.
//
// Every read is one function (reader.go): it fetches each posting's
// frame at its offset and verifies it, and from the first frame that
// does not verify — or from the start, without postings — scans, so a
// damaged store answers a keyed query exactly as it answers a scan.
//
// Queries (query.go) are context-first with functional options,
// mirroring the public netfail API. Every answer is defined to equal
// the corresponding slice of a fresh full-pipeline run — the oracle
// the root-package store tests pin.
package store
