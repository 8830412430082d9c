package netsim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netfail/internal/topo"
)

// openUnder lists the process's open descriptors that point below dir.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to inspect: %v", err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestRunShardedToCaptureClosesShardsOnError: every shard writer the
// run opened is closed again on each of its error returns — a shard
// that cannot be created after others were, and a cancellation that
// leaves domains undispatched.
func TestRunShardedToCaptureClosesShardsOnError(t *testing.T) {
	cfg := daysConfig(1, 2)
	fabric := topo.DefaultFabricSpec(2)

	t.Run("shard cannot be created", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "capture")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-0001"), []byte("in the way"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RunShardedToCapture(context.Background(), cfg, fabric, dir, 1); err == nil {
			t.Fatal("a regular file at shard-0001 did not fail the run")
		}
		if open := openUnder(t, dir); len(open) > 0 {
			t.Errorf("descriptors left open: %v", open)
		}
	})

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("cancelled before dispatch, %d workers", workers), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "capture")
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := RunShardedToCapture(ctx, cfg, fabric, dir, workers); err == nil {
				t.Fatal("a cancelled context did not fail the run")
			}
			if open := openUnder(t, dir); len(open) > 0 {
				t.Errorf("descriptors left open: %v", open)
			}
		})
	}
}
