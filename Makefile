# Developer entrypoints. `make verify` is the tier-1 gate CI enforces.

.PHONY: build test lint race verify faultinject fuzz benchmark loc obs chaos scale query golden mutate

build:
	go build ./...

test:
	go test ./...

# Rewrite the three generated artifacts the README points at, after a
# change that is meant to move them; review and commit the diff. Each
# is held byte for byte: docs/report-seed1.txt by TestSeed1ReportGolden,
# docs/reproduction-seed1.md by TestSeed1MarkdownGolden, and the
# scorecard blocks of EXPERIMENTS.md (the ten-seed panel) by
# TestExperimentsGolden, which rewrites them under NETFAIL_GOLDEN=update.
golden:
	go run ./cmd/netfail-analyze -seed 1 > docs/report-seed1.txt
	go run ./cmd/netfail-analyze -seed 1 -markdown > docs/reproduction-seed1.md
	NETFAIL_GOLDEN=update go test -count=1 -run '^TestExperimentsGolden$$' .

# Static analysis: go vet plus the repo's own suite (detclock,
# droppederr, lockguard).
lint:
	go vet ./...
	go run ./cmd/netfail-lint ./...

# Mutation table: seed each bug of internal/lint/mutation_test.go into
# an overlay copy of its file (the tree is never written), run its
# checks, and rewrite the verdict block of docs/static-analysis.md —
# which checks catch each row, and the rows only one check catches;
# fails, once the block is written, when a row's verdict moved from
# the committed one. Minutes; not part of verify, which checks only
# the rows' anchors.
mutate:
	NETFAIL_GOLDEN=update go test -count=1 -timeout 30m -run '^TestMutationTable$$' -v ./internal/lint

race:
	go test -race ./...

# Degradation gate: corrupt every capture stream deterministically and
# re-assert the paper's qualitative findings on the salvaged data.
faultinject:
	go test -short -run 'Corrupt' -v . ./internal/faultinject

# Fuzz gate: run every Fuzz* target under the fuzzing engine for
# FUZZTIME each (default 5s); `go test` alone only replays their seeds.
# Part of verify.
fuzz:
	./scripts/fuzz.sh

# The repo's one end-to-end benchmark (BENCHMARK.json, benchmark/README.md):
# two sets of every workload, failing when they disagree.
benchmark:
	go run ./benchmark -selfcheck

# Non-test and test Go lines per cmd/ and internal/ package, then per
# top-level directory (benchmark/ and testdata/ excluded): "least code"
# is a tracked number.
loc:
	./scripts/loc.sh

# Scale gate: simulate and analyze sharded spill-to-disk campaigns at
# 1x and 10x CENIC scale and print events/sec, wall-clock, capture size
# and peak RSS per point; fails if peak RSS passes the bound (flags
# -mult -days -seed -max-rss-mb, see cmd/netfail-scale).
scale:
	go run ./cmd/netfail-scale

# Observability smoke: run the instrumented pipeline on a one-month
# seeded campaign; assert a non-empty span tree and zero drop counters.
obs:
	./scripts/obs-smoke.sh

# Query smoke: build an indexed failure store from a seeded campaign,
# drive every netfail-query verb, and hit the /api/v1 HTTP surface
# including the shared error envelope. Part of verify.
query:
	./scripts/query.sh

# Crash-safety gate: SIGKILL netfail-serve mid-ingest and assert the
# resumed report is byte-identical, plus the overload soak and drain
# deadline, all under the race detector.
chaos:
	./scripts/chaos.sh

verify:
	./scripts/verify.sh
