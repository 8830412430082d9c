#!/bin/sh
# verify.sh — the single tier-1 verification entrypoint: build,
# vet, the repo's own static-analysis suite (netfail-lint), and the
# full test suite under the race detector. CI runs exactly this
# script; run it locally before pushing:
#
#   ./scripts/verify.sh          # everything
#   ./scripts/verify.sh -short   # skip the race run (quick iteration)
set -eu

cd "$(dirname "$0")/.."

short=0
[ "${1:-}" = "-short" ] && short=1

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> netfail-lint ./... (analyzers + escape baseline gate)"
go run ./cmd/netfail-lint ./...

echo "==> go test ./..."
go test ./...

echo "==> bench-compare (hot-path alloc pins)"
./scripts/bench-compare.sh > /dev/null

if [ "$short" = 0 ]; then
    echo "==> go test -race ./..."
    go test -race ./...

    echo "==> fuzz (every Fuzz* target, ${FUZZTIME:-5s} each)"
    ./scripts/fuzz.sh

    echo "==> obs smoke (instrumented 1-month run)"
    ./scripts/obs-smoke.sh

    echo "==> query smoke (store build + netfail-query + /api/v1)"
    ./scripts/query.sh

    echo "==> scale smoke (2-shard spill campaign, 7 days)"
    MULTS=1,2 DAYS=7 MAX_RSS_MB=1024 OUT="$(mktemp)" ./scripts/scale.sh > /dev/null

    echo "==> chaos (kill/restart identity, overload soak, drain)"
    ./scripts/chaos.sh
fi

echo "==> lines of Go (informational)"
./scripts/loc.sh

echo "verify: OK"
