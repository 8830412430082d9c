package main

import "time"

// The benchmark runs on a few cores of a shared host, beside whatever
// else the host and the guest are running. Three things move a wall
// clock there that are not the program: waiting for a processor while
// another process has it, a neighbour on the sibling hyperthread (costs
// arithmetic a quarter), and a neighbour in the shared cache (costs
// memory accesses up to half). Wall-clock medians of ten runs of the
// same code spread 26 to 34 % on the machine that checks this
// benchmark. README.md has the measurements behind what follows.
//
// So the end-to-end times are taken on the processor clock, which stops
// while the process waits its turn, with the process held to one running
// thread (GOMAXPROCS 1) so that it never waits on itself; and every
// timed operation is bracketed by readings of a reference kernel that
// belongs to the benchmark, not to the program under test: a fixed
// stretch of register arithmetic followed by a fixed stretch of
// cache-missing reads and writes. The operation's processor time is
// scaled by how fast the kernel ran around it, which takes out the
// neighbours. What is reported is processor seconds at reference speed.

const (
	refALUSteps = 10_000_000
	refMemSteps = 1_340_000
	refMemWords = 1 << 22 // 32 MB: eight times the second-level cache
	// refNominalS is what one reading takes on the class of machine the
	// benchmark was written on, in a quiet stretch: speed 1. That machine
	// usually runs at 0.8 to 0.9 of it. The constant only fixes the
	// scale of the reported times.
	refNominalS = 0.0384
)

// stopwatch times a stretch of this process's work on both clocks.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// stop returns the wall seconds passed and the processor seconds used.
func (w stopwatch) stop() (wall, cpu float64) {
	return time.Since(w.wall).Seconds(), cpuSeconds() - w.cpu
}

// speedometer reads the host's speed with the reference kernel.
type speedometer struct {
	buf    []uint64
	sink   uint64
	last   float64   // the latest reading, in processor seconds
	spentS float64   // wall time spent reading, so loops can count it
	speeds []float64 // every bracket's speed, for the host_speed figure
}

func newSpeedometer() *speedometer {
	s := &speedometer{buf: make([]uint64, refMemWords)}
	// Touch every page before the first reading, which would otherwise
	// time the kernel's page faults.
	for i := range s.buf {
		s.buf[i] = uint64(i)
	}
	return s
}

// read runs the kernel once and returns the processor time it took.
func (s *speedometer) read() float64 {
	w := startWatch()
	x := uint64(88172645463325252)
	for i := 0; i < refALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	mask := uint64(len(s.buf) - 1)
	for i := 0; i < refMemSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.buf[x&mask] += x
	}
	s.sink += x
	wall, cpu := w.stop()
	s.spentS += wall
	return cpu
}

// mark opens a bracket: the reading before a timed operation. After
// work done off the clock, mark again, so the reading is fresh.
func (s *speedometer) mark() { s.last = s.read() }

// lap closes the bracket around the operation that just ended and
// opens the next one. It returns the host's speed over the bracket as
// a share of the reference speed: processor seconds times it are
// seconds at reference speed.
func (s *speedometer) lap() float64 {
	before := s.last
	s.last = s.read()
	speed := speedOver(before, s.last)
	s.speeds = append(s.speeds, speed)
	return speed
}

// speedOver is the speed over a bracket whose readings took before and
// after seconds: 1 when both took the nominal time, 0.5 when the kernel
// ran half as fast.
func speedOver(before, after float64) float64 {
	return refNominalS / ((before + after) / 2)
}
