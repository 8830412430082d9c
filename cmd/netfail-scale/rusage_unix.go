//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSKB returns the process's high-water resident set in KiB
// (ru_maxrss), or 0 when unavailable. Linux reports KiB natively;
// Darwin reports bytes.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := int64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024
	}
	return kb
}
