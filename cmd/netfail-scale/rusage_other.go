//go:build !unix

package main

// peakRSSKB is unavailable off unix; scale reports record 0.
func peakRSSKB() int64 { return 0 }
