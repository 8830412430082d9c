#!/bin/sh
# fuzz.sh — run every Fuzz* target in the module under the fuzzing
# engine for FUZZTIME each (default 5s). `go test ./...` only replays
# each target's seeds; this is what mutates from them. A crasher is
# written under the package's testdata/fuzz/ and fails the run.
#
#   ./scripts/fuzz.sh                 # every target, 5s each
#   FUZZTIME=1m ./scripts/fuzz.sh     # longer
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

for dir in $(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do
    for target in $(grep -hoE '^func Fuzz[A-Za-z0-9_]*' "$dir"/*_test.go | cut -d' ' -f2); do
        echo "==> fuzz $dir $target ($FUZZTIME)"
        if ! go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$dir" > "$log" 2>&1; then
            cat "$log"
            exit 1
        fi
        tail -n 1 "$log"
    done
done
echo "fuzz: OK"
