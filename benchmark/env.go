package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"netfail"
	"netfail/internal/netsim"
)

// runEnv is what one run of one workload is given.
type runEnv struct {
	seed    int64
	seconds float64 // how long the timed loop runs
	quick   bool
	tmp     string       // this run's scratch directory, removed at exit
	rec     *recorder    // nil unless the run is traced
	host    *speedometer // nil when the run is traced: its times are wall times
}

// lapse is one timed operation: the wall seconds that passed on this
// host, which the run's time budget is counted in, and the processor
// seconds it used, scaled to reference speed, which is what is reported.
type lapse struct{ wall, atRef float64 }

// timed runs fn on the clock. The reading of the host's speed before it
// is the speedometer's latest (mark takes a fresh one); the reading
// after it is taken here.
func (e *runEnv) timed(fn func() error) (lapse, error) {
	w := startWatch()
	err := fn()
	wall, cpu := w.stop()
	return lapse{wall, cpu * e.host.lap()}, err
}

// member returns the campaign seed of the k-th member of this run's
// panel. A seed's campaigns differ by a fifth in size and by a tenth in
// cost per event, so a run measures several and reports the median
// cost per unit of work; one campaign per run would make every metric
// follow the seed.
func (e *runEnv) member(k int) int64 { return e.seed*1000 + int64(k) }

// setupReps is how many times a run sets up, each time on the next
// panel member: setup_s is the median, so one slow set-up does not
// move it. A workload asks for as many as its set-up is cheap: the
// more members the timed loop has to take in turn, the less the run's
// median follows any one campaign.
func (e *runEnv) setupReps(full int) int {
	if e.quick {
		return 1
	}
	return full
}

// minIters is the fewest timed iterations whatever -seconds says: a
// median over fewer is one sample.
func (e *runEnv) minIters() int {
	if e.quick {
		return 1
	}
	return 3
}

// dir returns a fresh, empty directory under the run's scratch.
func (e *runEnv) dir(name string) (string, error) {
	p := filepath.Join(e.tmp, name)
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, os.MkdirAll(p, 0o755)
}

// loop calls iter until the run has measured for its time, at least
// minIters times, and stops early on cancellation or an error. iter
// returns the wall seconds it timed; they and the readings of the
// host's speed use up the run's time, checking done off the clock does
// not.
func (e *runEnv) loop(ctx context.Context, iter func(i int) (timed float64, err error)) error {
	var measured float64
	readingS := e.host.spentS
	for i := 0; i < e.minIters() || measured+e.host.spentS-readingS < e.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		timed, err := iter(i)
		if err != nil {
			return err
		}
		measured += timed
	}
	return nil
}

// setup runs once per repetition and returns each one's time, at
// reference speed; setup_s is their median. prepare, when there is one,
// runs before each repetition, off the clock.
//
// The two set-ups that write a campaign directory pass as prepare the
// writing itself, so that the timed repetition writes over the files
// the first left. Creating a campaign's thousand router configurations
// costs ext4 between 0.2 and 0.6 s of kernel time, by which block group
// the new directory landed in and what the file system did before: up
// to three times the simulation that is being set up, and the reason
// the first version of this benchmark was refused (setup_s drifted by a
// quarter between two sets of runs). Writing over them costs a steady
// 0.05 s.
func (e *runEnv) setup(ctx context.Context, reps int, prepare, once func(rep int) error) ([]float64, error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if prepare != nil {
			if err := prepare(rep); err != nil {
				return nil, fmt.Errorf("preparing set-up: %w", err)
			}
		}
		e.host.mark()
		l, err := e.timed(func() error { return once(rep) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, l.atRef)
	}
	return times, nil
}

// simConfig is the campaign every workload simulates: the paper's
// CENIC-scale network from StudyStart, cut to days when days > 0 and
// the full thirteen months otherwise.
func simConfig(seed int64, days int) netfail.SimulationConfig {
	cfg := netfail.SimulationConfig{Seed: seed}
	if days > 0 {
		cfg.Start = netsim.StudyStart
		cfg.End = netsim.StudyStart.Add(time.Duration(days) * 24 * time.Hour)
	}
	return cfg
}

// dirBytes adds up the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
