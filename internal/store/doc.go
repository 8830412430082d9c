// Package store implements the indexed failure store: a persistent,
// queryable form of one analyzed campaign, written once at the end of
// an analysis run and then served many times.
//
// The batch pipeline answers every question — failures on a link,
// transitions in a window, messages during a flap — by re-running the
// whole extraction over the capture. The store persists the pipeline's
// outputs in time-ordered, CRC-framed binary segments (the same
// `A5 5A|len|crc` framing as the capture shards and the checkpoint
// WAL) with sparse time indexes and per-link/per-host posting lists,
// so a window or per-link query reads a few hundred frames instead of
// the campaign — and a query with both reads only the link's postings
// inside the ordinal range the time index allows the window, which for
// a quiet link on a given day is no frame at all.
//
// On-disk layout of a store directory:
//
//	store/
//	  manifest.json        params, catalogs, counts, precomputed tables
//	  failures.seg/.idx    sanitized failures, both sources, start-ordered
//	  failures.pst         link → failure-ordinal posting lists
//	  transitions.seg/.idx filtered transition streams, time-ordered
//	  transitions.pst      link → transition-ordinal posting lists
//	  messages-0000.seg/.idx  raw syslog lines, one segment per capture
//	  messages-0000.pst       shard, host → message-ordinal postings
//
// Records reference links, reporters, and hosts by ordinal into the
// manifest's catalogs. Segments reuse the capture reader/writer pair,
// inheriting its strict/lenient modes and salvage accounting; the
// posting files have their own framed format (postings.go) with the
// same convention: the strict reader fails with an offset-accurate
// error, the lenient reader resynchronizes and accounts every skip in
// a salvage.Report. Both indexes and postings are advisory — a store
// with damaged or missing index files still answers every query by
// scanning.
//
// Queries (query.go) are context-first with functional options,
// mirroring the public netfail API. Every answer is defined to equal
// the corresponding slice of a fresh full-pipeline run — the oracle
// the root-package store tests pin.
package store
