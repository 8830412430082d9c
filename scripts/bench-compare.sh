#!/usr/bin/env bash
# bench-compare.sh — the alloc-regression gate on the zero-allocation
# hot paths. Runs the pinned benchmarks with -benchmem and fails if any
# exceeds its allocs/op budget (netfail-bench -max-allocs). The pins
# are steady-state figures: each benchmark warms its scratch before the
# measured region, so any number above the budget means a per-record
# allocation crept back into a //netfail:hotpath loop.
#
#   BenchmarkSyslogExtract  6 allocs/op  fixed obs-stage cost, ~0/message
#   BenchmarkLSPDecode      0 allocs/op  arena decode, slot reuse
#   BenchmarkParseLinkEvent 0 allocs/op  []byte tokenizer + interning
#   BenchmarkAppend         0 allocs/op  reused WAL frame buffer
#   BenchmarkSegmentAppend  0 allocs/op  reused capture frame buffer
#   BenchmarkSegmentRead   16 allocs/op  zero-copy reader (buffer growth
#                                        amortized over 4096 records/op)
#   BenchmarkStoreWindowQueryWarm
#                          20 allocs/op  warm one-day/one-link store
#                                        query: two segment opens plus
#                                        result slices
#   BenchmarkListenerReplay
#                        5000 allocs/op  a month's LSPs through a fresh
#                                        listener (4526 measured): one
#                                        record per router, link and
#                                        stored LSP plus transition
#                                        growth, nothing per LSP
#   BenchmarkTable5       690 allocs/op  13 months (627 measured): the
#                                        sample slices and summaries;
#                                        nothing per bootstrap round
#   BenchmarkTable7      6200 allocs/op  13 months (5670 measured): one
#                                        graph, two sweeps, and per
#                                        isolation event its record and
#                                        down-link snapshot; nothing
#                                        per failure boundary
#   BenchmarkIsolationSweep
#                        1650 allocs/op  the IS-IS half of the above
#                                        (1495 measured)
#
# verify.sh runs this as part of tier-1; `make bench-compare` runs it
# alone. BENCHTIME trades precision for speed (default 10x).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-10x}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkSyslogExtract$|BenchmarkListenerReplay$' -benchmem -benchtime "$BENCHTIME" . | tee "$raw"
go test -run '^$' -bench 'BenchmarkLSPDecode$|BenchmarkParseLinkEvent$' -benchmem -benchtime "$BENCHTIME" \
    ./internal/isis ./internal/syslog | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkAppend$' -benchmem -benchtime "$BENCHTIME" ./internal/checkpoint | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkSegmentAppend$|BenchmarkSegmentRead$' -benchmem -benchtime "$BENCHTIME" \
    ./internal/capture | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkStoreWindowQueryWarm$|BenchmarkTable5$|BenchmarkTable7$|BenchmarkIsolationSweep$' \
    -benchmem -benchtime "$BENCHTIME" . | tee -a "$raw"

go run ./cmd/netfail-bench -o /dev/null \
    -max-allocs BenchmarkSyslogExtract=6 \
    -max-allocs BenchmarkLSPDecode=0 \
    -max-allocs BenchmarkParseLinkEvent=0 \
    -max-allocs BenchmarkAppend=0 \
    -max-allocs BenchmarkSegmentAppend=0 \
    -max-allocs BenchmarkSegmentRead=16 \
    -max-allocs BenchmarkStoreWindowQueryWarm=20 \
    -max-allocs BenchmarkListenerReplay=5000 \
    -max-allocs BenchmarkTable5=690 \
    -max-allocs BenchmarkTable7=6200 \
    -max-allocs BenchmarkIsolationSweep=1650 \
    < "$raw"
echo "bench-compare: alloc pins hold" >&2
