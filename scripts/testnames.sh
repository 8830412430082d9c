#!/bin/sh
# testnames.sh BASE: print, one "package:Name" a line, the top-level
# Test* and Fuzz* functions `go test -list` finds at the git revision
# BASE but not in the working tree, and exit 1 if there are any. A
# change that consolidates tests runs it to show that no name went
# missing:
#
#   ./scripts/testnames.sh HEAD~1
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$1" | tar -x -C "$tmp/base"

# list DIR: the module's top-level test names under DIR, as package:Name.
# A package that fails to build would list no names, so that fails the
# script rather than reporting them missing or present.
list() {
    (cd "$1" && go test -list '^(Test|Fuzz)' ./...) > "$tmp/list.out" 2>&1 || {
        cat "$tmp/list.out" >&2
        echo "$0: go test -list failed in $1" >&2
        exit 2
    }
    awk '
        /^(Test|Fuzz)/ { names[n++] = $1; next }
        /^ok / { for (i = 0; i < n; i++) print $2 ":" names[i]; n = 0 }' "$tmp/list.out" | sort
}

list "$tmp/base" > "$tmp/base.txt"
list . > "$tmp/head.txt"
comm -23 "$tmp/base.txt" "$tmp/head.txt" > "$tmp/missing.txt"
cat "$tmp/missing.txt"
[ ! -s "$tmp/missing.txt" ]
