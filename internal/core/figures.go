package core

import (
	"time"

	"netfail/internal/match"
	"netfail/internal/stats"
	"netfail/internal/topo"
)

// CDF is one empirical curve of Figure 1: x values with cumulative
// probabilities.
type CDF struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure1 holds the three CPE-link cumulative distributions of the
// paper's Figure 1, each with a syslog and an IS-IS curve.
type Figure1 struct {
	// FailureDuration in seconds (Fig 1a).
	FailureDuration [2]CDF
	// LinkDowntime in annualized hours (Fig 1b).
	LinkDowntime [2]CDF
	// TimeBetween in hours (Fig 1c).
	TimeBetween [2]CDF
}

// Figure1 computes the CPE-link CDFs for both sources.
func (a *Analysis) Figure1() Figure1 { return figure1(a.samples()) }

func figure1(samples [2][2]metricSamples) Figure1 {
	var fig Figure1
	s, i := samples[0][topo.CPELink], samples[1][topo.CPELink]
	fig.FailureDuration[0] = makeCDF("syslog", s.durations)
	fig.FailureDuration[1] = makeCDF("isis", i.durations)
	fig.LinkDowntime[0] = makeCDF("syslog", s.downtime)
	fig.LinkDowntime[1] = makeCDF("isis", i.downtime)
	fig.TimeBetween[0] = makeCDF("syslog", s.between)
	fig.TimeBetween[1] = makeCDF("isis", i.between)
	return fig
}

func makeCDF(label string, sample []float64) CDF {
	x, y := stats.NewECDF(sample).Points()
	return CDF{Label: label, X: x, Y: y}
}

// WindowKnee reproduces the (omitted-for-space) window-size analysis
// behind §3.4's "clear knee at ten seconds": the fraction of syslog
// downtime matched to IS-IS failures as the matching window grows.
func (a *Analysis) WindowKnee(windows []time.Duration) []match.WindowPoint {
	if len(windows) == 0 {
		windows = []time.Duration{
			1 * time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second,
			8 * time.Second, 10 * time.Second, 15 * time.Second, 20 * time.Second,
			30 * time.Second, 45 * time.Second, 60 * time.Second,
		}
	}
	return match.WindowSweep(a.SyslogFailures, a.ISISFailures, windows)
}
