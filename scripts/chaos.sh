#!/bin/sh
# chaos.sh — the crash-safety gate `make chaos` runs (and CI enforces):
#
#   1. kill/restart: netfail-serve is SIGKILLed at each of three seeded
#      points mid-ingest, restarted on the same state directory, and
#      must produce a final report byte-identical to an uninterrupted run
#      (TestChaosKillRestartReportIsByteIdentical, plus the in-process
#      twins TestKillResumeMatchesUninterrupted and, with the kill after
#      three WAL seals, TestKillResumeAfterSealsMatchesUninterrupted; a
#      state directory the pre-seal daemon left resumes too,
#      TestResumeFromParentStateDir); a checkpoint error after an
#      append still counts the record (TestCheckpointErrorCountsIngestedRecord);
#      group commit journals a batch in one write, cut at the seals, in
#      emit order (TestGroupCommitIsRealAndOrdered);
#   2. overload soak: each shed policy is driven at 10x queue capacity
#      and must account every record as ingested or shed, with bounded
#      queue depth (TestOverloadSoakShedsPerPolicyWithExactAccounting);
#   3. drain: a SIGTERM-style cancellation with a backlog must return
#      within four drain deadlines, even mid-batch, and account every
#      produced record as ingested or shed.
#
# Everything runs under the race detector: crash-safety claims are
# worthless if the ingest path races.
set -eu

cd "$(dirname "$0")/.."

echo "==> chaos: kill/restart report identity (SIGKILL mid-ingest)"
go test -race -count=1 -run 'TestChaosKillRestart' .

echo "==> chaos: supervisor kill/resume, overload soak, drain deadline"
go test -race -count=1 \
    -run 'TestKillResumeMatchesUninterrupted|TestKillResumeAfterSealsMatchesUninterrupted|TestResumeFromParentStateDir|TestCheckpointErrorCountsIngestedRecord|TestGroupCommitIsRealAndOrdered|TestIngestAllocBudget|TestOverloadSoakShedsPerPolicyWithExactAccounting|TestDrainTimeoutBoundsShutdown' \
    ./internal/serve

echo "chaos: OK"
