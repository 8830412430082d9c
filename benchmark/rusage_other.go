//go:build !unix

package main

import (
	"os"
	"time"
)

// Peak RSS is not available here; the metric reads 0.

func selfPeakRSSMB() float64 { return 0 }

func childPeakRSSMB(*os.ProcessState) float64 { return 0 }

// Nor is the process's processor clock; the wall clock stands in.

var processStart = time.Now()

func cpuSeconds() float64 { return time.Since(processStart).Seconds() }
