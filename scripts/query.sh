#!/bin/sh
# query.sh — end-to-end smoke of the indexed failure store and its
# three query surfaces: build a store from a seeded two-week campaign
# with netfail-analyze -store, drive every netfail-query verb (text
# and -json), then mount the /api/v1 HTTP surface with `serve` and
# assert the JSON endpoints and the shared error envelope.
#
#   make query            # or: ./scripts/query.sh
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
srvpid=""
cleanup() {
    [ -n "$srvpid" ] && kill "$srvpid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

storedir="$tmp/store"
out="$tmp/out"

echo "==> netfail-analyze -seed 1 -days 14 -table 4 -store"
go run ./cmd/netfail-analyze -seed 1 -days 14 -table 4 -store "$storedir" > /dev/null

[ -f "$storedir/manifest.json" ] || {
    echo "query-smoke: FAIL: -store did not write a manifest" >&2
    exit 1
}

echo "==> go build ./cmd/netfail-query"
go build -o "$tmp/netfail-query" ./cmd/netfail-query
q="$tmp/netfail-query -store $storedir"

fail() {
    echo "query-smoke: FAIL: $1" >&2
    [ -f "$out" ] && sed 's/^/    /' "$out" >&2
    exit 1
}

echo "==> netfail-query verbs"
$q info > "$out"
grep -q 'NFSTORE1' "$out" || fail "info missing format name"
grep -q 'seed' "$out" || fail "info missing seed"

$q links > "$out"
[ -s "$out" ] || fail "links printed nothing"

$q -json failures -limit 5 > "$out"
grep -q '"count"' "$out" || fail "-json failures missing count"

$q -json transitions -stream is-reach -dir down -limit 3 > "$out"
grep -q '"is-reach"' "$out" || fail "-json transitions missing stream"

$q -json messages -limit 3 > "$out"
grep -q '"count"' "$out" || fail "-json messages missing count"

$q -json flaps -source syslog > "$out"
grep -q '"episodes"' "$out" || fail "-json flaps missing episodes"

# One link, one window — the question the store exists for. Aim it at
# the first stored failure: its link, from the hour it began in to the
# end of that day.
count_of() { sed -n 's/^{"count":\([0-9]*\),.*/\1/p' "$1"; }
$q -json failures -limit 1 > "$out"
link=$(sed -n 's/.*"link":"\([^"]*\)".*/\1/p' "$out")
began=$(sed -n 's/.*"start":"\([^"]*\)".*/\1/p' "$out")
[ -n "$link" ] && [ -n "$began" ] || fail "-json failures -limit 1 has no link and start to aim at"
day=${began%%T*}
hour=${began#*T}
from="${day}T${hour%%:*}:00:00Z"
to="${day}T23:59:59Z"
$q -json failures -link "$link" -from "$from" -to "$to" > "$out"
cli_count=$(count_of "$out")
[ "${cli_count:-0}" -ge 1 ] || fail "-json failures -link -from -to found nothing on $link from $from"

$q table -n 4 > "$out"
grep -q 'Table 4' "$out" || fail "table -n 4 missing header"

# Usage errors must exit 2, not succeed or crash.
if $q table -n 99 > "$out" 2>&1; then
    fail "table -n 99 succeeded"
fi

echo "==> netfail-query serve + /api/v1"
addr=127.0.0.1:18641
$tmp/netfail-query -store "$storedir" serve -debug-addr "$addr" > "$out" 2>&1 &
srvpid=$!

i=0
until curl -sf "http://$addr/api/v1/health" > /dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "server never became healthy"
    kill -0 "$srvpid" 2>/dev/null || fail "server exited early"
    sleep 0.1
done

# The pre-versioning spellings are retired: 404, not an alias.
for path in /healthz /ready /debug/netfail /debug/vars; do
    code=$(curl -s -o "$out" -w '%{http_code}' "http://$addr$path")
    [ "$code" = 404 ] || fail "$path returned $code, want 404"
done

curl -sf "http://$addr/api/v1/links" > "$out" || fail "/api/v1/links"
grep -q '"links"' "$out" || fail "/api/v1/links missing links field"

curl -sf "http://$addr/api/v1/failures?source=isis&limit=5" > "$out" \
    || fail "/api/v1/failures"
grep -q '"count"' "$out" || fail "/api/v1/failures missing count"

# The same link and window over HTTP: the same count, and a body sent
# whole, behind its length.
curl -sf -G -D "$tmp/headers" "http://$addr/api/v1/failures" \
    --data-urlencode "link=$link" --data-urlencode "from=$from" --data-urlencode "to=$to" > "$out" \
    || fail "/api/v1/failures?link&from&to"
[ "$(count_of "$out")" = "$cli_count" ] \
    || fail "/api/v1/failures?link&from&to counts $(count_of "$out"), the CLI counted $cli_count"
grep -qi '^content-length:' "$tmp/headers" || fail "/api/v1/failures response has no Content-Length"

curl -sf "http://$addr/api/v1/tables/4" > "$out" || fail "/api/v1/tables/4"
grep -q '"table"' "$out" || fail "/api/v1/tables/4 missing table field"

curl -sf "http://$addr/api/v1/store" > "$out" || fail "/api/v1/store"
grep -q 'NFSTORE1' "$out" || fail "/api/v1/store missing format"

# Bad parameters come back as 400 with the shared error envelope.
code=$(curl -s -o "$out" -w '%{http_code}' "http://$addr/api/v1/failures?limit=x")
[ "$code" = 400 ] || fail "bad limit returned $code, want 400"
grep -q '"error"' "$out" || fail "bad-param response missing error envelope"
grep -q '"bad_param"' "$out" || fail "bad-param envelope missing code"

kill "$srvpid"
wait "$srvpid" 2>/dev/null || true
srvpid=""

echo "query-smoke: OK (store built, CLI verbs, link+window both ways, /api/v1 + error envelope)"
