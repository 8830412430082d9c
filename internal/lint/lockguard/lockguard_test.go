package lockguard_test

import (
	"testing"

	"netfail/internal/lint/linttest"
	"netfail/internal/lint/lockguard"
)

// TestGuardedFields checks the "// guarded by mu" convention on
// fixtures mirroring a locked message log and isis.Database: unlocked
// reads and writes and writes under RLock are diagnosed; locked
// accesses, *Locked helpers, constructors, and per-instance locking
// pass.
func TestGuardedFields(t *testing.T) {
	linttest.Run(t, lockguard.Analyzer, "testdata/guard", "netfail/internal/syslog/guardtest")
}
