#!/bin/sh
# verify.sh — the single tier-1 verification entrypoint: build,
# vet, gofmt, the repo's own static-analysis suite (netfail-lint), the
# full test suite (hot-path alloc pins included) plain and under the
# race detector, and every Benchmark* run once so one that fails is
# seen. CI runs exactly this script; run it locally before
# pushing:
#
#   ./scripts/verify.sh          # everything
#   ./scripts/verify.sh -short   # stop after the plain test run, itself
#                                # go test -short: the ten-seed panel
#                                # (TestExperimentsGolden) and the other
#                                # long tests skip (quick iteration)
set -eu

cd "$(dirname "$0")/.."

short=0
[ "${1:-}" = "-short" ] && short=1

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (tracked Go files outside testdata/)"
unformatted=$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt would rewrite:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> netfail-lint ./... (analyzers)"
go run ./cmd/netfail-lint ./...

if [ "$short" = 1 ]; then
    echo "==> go test -short ./..."
    go test -short ./...
else
    echo "==> go test ./..."
    go test ./...
fi

if [ "$short" = 0 ]; then
    echo "==> benchmarks, each run once (go test -bench . -benchtime 1x)"
    go test -run '^$' -bench . -benchtime 1x ./...

    echo "==> go test -race ./..."
    go test -race ./...

    echo "==> fuzz (every Fuzz* target, ${FUZZTIME:-5s} each)"
    ./scripts/fuzz.sh

    echo "==> obs smoke (instrumented 1-month run)"
    ./scripts/obs-smoke.sh

    echo "==> query smoke (store build + netfail-query + /api/v1)"
    ./scripts/query.sh

    echo "==> examples smoke (every examples/* runs to exit 0)"
    for ex in examples/*/; do
        go run "./$ex" > /dev/null
    done

    echo "==> scale smoke (2-shard spill campaign, 7 days)"
    go run ./cmd/netfail-scale -mult 1,2 -days 7 -max-rss-mb 1024 > /dev/null

    echo "==> chaos (kill/restart identity, overload soak, drain)"
    ./scripts/chaos.sh
fi

echo "==> lines of Go (informational)"
./scripts/loc.sh

echo "verify: OK"
