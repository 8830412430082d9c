//go:build unix

package main

import (
	"os"
	"runtime"
	"syscall"
)

// maxrssMB converts ru_maxrss, which Linux counts in kilobytes and
// Darwin in bytes.
func maxrssMB(ru *syscall.Rusage) float64 {
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / 1e6
	}
	return float64(ru.Maxrss) / 1e3
}

// selfPeakRSSMB is this process's high-water resident set.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return maxrssMB(&ru)
}

// childPeakRSSMB is a finished child's high-water resident set.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return maxrssMB(ru)
	}
	return 0
}

// cpuSeconds is the processor time this process has used so far, user
// and system, on all its threads. The kernel keeps the sum to the
// nanosecond; only its split into user and system is sampled.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	seconds := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return seconds(ru.Utime) + seconds(ru.Stime)
}
