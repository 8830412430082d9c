//go:build unix

package main

import (
	"testing"
	"time"
)

// TestStopwatchStopsWhileWaiting pins what the end-to-end times rest
// on: the processor clock advances while the process computes and
// stands still while it waits.
func TestStopwatchStopsWhileWaiting(t *testing.T) {
	w := startWatch()
	time.Sleep(100 * time.Millisecond)
	wall, cpu := w.stop()
	if wall < 0.1 || cpu > wall/2 {
		t.Errorf("asleep for %v s of wall time, %v s of processor time", wall, cpu)
	}

	s := newSpeedometer()
	w = startWatch()
	s.read()
	wall, cpu = w.stop()
	if cpu <= 0 || cpu > wall*1.5 {
		t.Errorf("computing for %v s of wall time, %v s of processor time", wall, cpu)
	}
}
