// Command benchmark is the repository's one benchmark: four named
// workloads, each run in a fresh process, reporting the end-to-end
// metrics with tracing off and, in a separate traced run, a per-layer
// ledger taken by a staged driver that calls each layer's public
// functions one after another and records a span around every call.
//
//	go run ./benchmark                       # every workload, end to end
//	go run ./benchmark -trace 1              # every workload, per layer
//	go run ./benchmark -workload query-mix -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -runs 10 -out a.json  # ten seeds per workload
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -selfcheck -runs 5
//
// BENCHMARK.json at the repository root describes it to the driver;
// README.md in this directory says what every metric means.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one named set of inputs and the two ways to run it.
type workload struct {
	name  string
	why   string
	run   func(context.Context, *runEnv) (*runResult, error) // end to end, tracing off
	trace func(context.Context, *runEnv) (*runResult, error) // the staged, traced driver
	// traceReps is how many times a traced run drives the staged and
	// the un-staged pipeline, each metric reported as the median: timed
	// once, two passes of half a second each differ by a fifth on a
	// shared machine, and their ratio, driver.coverage, by more. It is
	// as many as fit the time an end-to-end run takes.
	traceReps int
}

var workloads = []workload{
	{"study-1x", "the paper's study in RAM: simulator, listener replay, Tables 5 and 7, and the store's write side do the work; capture, checkpoint, serve and store reads do none",
		runStudy, traceStudy, 7},
	{"fabric-3x", "a sharded capture on disk: capture reads, the syslog tokenizer and the listener on dense pod LSPs do the work; tables, report and store do none",
		runFabric, traceFabric, 7},
	{"query-mix", "one client querying a served store: sparse-index seeks, postings, segment decode and the api layer do the work; simulator, listener and tables do none",
		runQuery, traceQuery, 3},
	{"ingest-replay", "the netfail-serve daemon replaying flat files: supervised sources, bounded queues, WAL appends and snapshots do the work, and do none anywhere else",
		runIngest, traceIngest, 7},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

// benchProcs is the GOMAXPROCS every workload runs at, the daemon's
// child process likewise: one running thread. On a shared two-core host
// a second thread measures who else wanted the second core; hostspeed.go
// has the whole reasoning.
const benchProcs = 1

type flags struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	runs      int
	out       string
	spans     string
	tmp       string
	compare   bool
	selfcheck bool
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	flag.Int64Var(&f.seed, "seed", 1, "campaign and operation seed")
	flag.Float64Var(&f.seconds, "seconds", defaultSeconds, "how long each run's timed loop measures")
	flag.IntVar(&f.trace, "trace", 0, "1: the staged, traced run that reports the per-layer metrics; 0: the end-to-end metrics")
	flag.BoolVar(&f.quick, "quick", false, "smoke-test sizes: 3-day campaigns, 1 pod, 200 queries, one daemon run")
	flag.IntVar(&f.runs, "runs", 1, "runs per workload, run r using seed+r")
	flag.StringVar(&f.out, "out", "", "write the results as JSON here")
	flag.StringVar(&f.spans, "spans", "", "write a traced run's spans here (default <tmp>/spans-<workload>.json)")
	flag.StringVar(&f.tmp, "tmp", ".bench_tmp", "scratch directory; each run's data is removed when it ends")
	flag.BoolVar(&f.compare, "compare", false, "compare two -out files: -compare A.json B.json")
	flag.BoolVar(&f.selfcheck, "selfcheck", false, "run two sets of the same build and fail if they disagree beyond the bounds")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, &f)
	stop()
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, f *flags) error {
	if f.trace != 0 && f.trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, not %d", f.trace)
	}
	if f.runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	switch {
	case f.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case f.workload != "":
		return runOne(ctx, f)
	case f.selfcheck:
		return selfcheck(ctx, f)
	default:
		set, err := runSet(ctx, f, f.trace == 1)
		if err != nil {
			return err
		}
		set.printSummary(os.Stdout)
		if f.out != "" {
			return set.write(f.out)
		}
		return nil
	}
}

// scratch makes this process's own directory under the scratch base.
// Everything the benchmark writes lives there and goes with it.
func scratch(base, prefix string) (dir string, cleanup func(), err error) {
	if base, err = filepath.Abs(base); err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(base, prefix+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		os.Remove(base) // only succeeds once the last run has left
	}, nil
}

// runOne runs one workload in this process and prints its table and,
// last, the one-line result the driver reads.
func runOne(ctx context.Context, f *flags) error {
	w, ok := findWorkload(f.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", f.workload)
	}
	tmp, cleanup, err := scratch(f.tmp, w.name)
	if err != nil {
		return err
	}
	// Cancellation unwinds through the workload, which stops its own
	// child, so this also runs on SIGINT and SIGTERM.
	defer cleanup()

	res, rec, err := execute(ctx, w, f, tmp)
	if err != nil {
		return err
	}

	if rec != nil {
		path := f.spans
		if path == "" {
			path = filepath.Join(filepath.Dir(tmp), "spans-"+w.name+".json")
		}
		if err := rec.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
	}
	res.print(os.Stdout)
	if f.out != "" {
		file := resultFile{Env: readEnv(), Seed: f.seed, Runs: 1, Seconds: f.seconds, Quick: f.quick,
			Results: []runResult{*res}, TotalWallS: res.WallS}
		if err := file.write(f.out); err != nil {
			return err
		}
	}
	fmt.Println(res.contractLine())
	return nil
}

// execute runs the workload, traced or not, with tmp as its scratch
// directory.
func execute(ctx context.Context, w workload, f *flags, tmp string) (*runResult, *recorder, error) {
	e := &runEnv{seed: f.seed, seconds: f.seconds, quick: f.quick, tmp: tmp}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	if f.quick {
		e.seconds = 0 // the fewest iterations and operations, whatever -seconds says
	}
	fn, reps := w.run, 1
	if f.trace == 1 {
		e.rec = newRecorder(w.name)
		fn = w.trace
		if !f.quick {
			reps = w.traceReps
			e.seconds /= float64(reps)
		}
	} else {
		e.host = newSpeedometer()
	}
	t0 := time.Now()
	var all []*runResult
	for len(all) < reps {
		if e.rec != nil {
			e.rec.startRep()
		}
		res, err := fn(ctx, e)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, cerr
			}
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		all = append(all, res)
	}
	res := medianResult(all)
	res.WallS = time.Since(t0).Seconds()
	if f.trace == 0 {
		if _, ok := res.Metrics["peak_rss_mb"]; !ok {
			res.set("peak_rss_mb", selfPeakRSSMB())
		}
		res.detail("host_speed", "ratio", median(e.host.speeds), e.host.speeds)
	}
	if res.Attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no operation was attempted", w.name)
	}
	return res, e.rec, nil
}

// runSet runs every workload f.runs times, each run in a child
// process of this same binary so that peak RSS is per workload, with
// the workloads interleaved so drift in the machine lands on all.
func runSet(ctx context.Context, f *flags, traced bool) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, cleanup, err := scratch(f.tmp, "set")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	set := &resultFile{Env: readEnv(), Seed: f.seed, Runs: f.runs, Seconds: f.seconds, Quick: f.quick}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	t0 := time.Now()
	for r := 0; r < f.runs; r++ {
		for _, w := range workloads {
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, r))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(f.seed + int64(r)),
				"-seconds", fmt.Sprint(f.seconds), "-trace", traceArg, "-out", out, "-tmp", f.tmp}
			if f.quick {
				args = append(args, "-quick")
			}
			// CommandContext kills the child when ctx is cancelled, and
			// Run waits for it to be gone.
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 10 * time.Second
			if err := cmd.Run(); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				return nil, fmt.Errorf("%s (seed %d): %w", w.name, f.seed+int64(r), err)
			}
			one, err := readResultFile(out)
			if err != nil {
				return nil, err
			}
			set.Results = append(set.Results, one.Results...)
		}
	}
	set.TotalWallS = time.Since(t0).Seconds()
	return set, nil
}
