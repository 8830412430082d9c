#!/bin/sh
# loc.sh: Go lines of code per internal/ package and cmd/ binary, then
# per top-level directory, non-test and test, leaving out benchmark/
# (frozen by BENCHMARK.json) and testdata/ (lint fixtures). "Least
# code" is a tracked number (ROADMAP): the totals, and a package's row
# when a PR is about that package, are what its CHANGES.md line quotes
# before and after. Informational; nothing gates on it.
set -eu

cd "$(dirname "$0")/.."

# count PATTERN DIR [-maxdepth N]: lines in DIR's *.go files whose name
# does (test) or does not (nontest) end in _test.go.
count() {
    kind=$1
    dir=$2
    shift 2
    if [ "$kind" = test ]; then
        set -- "$@" -name '*_test.go'
    else
        set -- "$@" -name '*.go' ! -name '*_test.go'
    fi
    find "$dir" "$@" ! -path '*/testdata/*' -print0 | xargs -0 cat 2>/dev/null | wc -l | tr -d ' '
}

printf '%-24s %8s %8s\n' dir non-test test
find internal cmd -mindepth 1 -type d ! -path '*/testdata*' | sort | while read -r dir; do
    n=$(count nontest "$dir" -maxdepth 1)
    t=$(count test "$dir" -maxdepth 1)
    if [ $((n + t)) -gt 0 ]; then
        printf '%-24s %8d %8d\n' "$dir" "$n" "$t"
    fi
done
total_n=0
total_t=0
for dir in . cmd examples internal; do
    depth=""
    name=$dir
    if [ "$dir" = . ]; then
        depth="-maxdepth 1"
        name="(root)"
    fi
    # shellcheck disable=SC2086
    n=$(count nontest "$dir" $depth)
    # shellcheck disable=SC2086
    t=$(count test "$dir" $depth)
    printf '%-24s %8d %8d\n' "$name" "$n" "$t"
    total_n=$((total_n + n))
    total_t=$((total_t + t))
done
printf '%-24s %8d %8d\n' total "$total_n" "$total_t"
