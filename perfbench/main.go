// Command perfbench is the repository's end-to-end benchmark: it times
// cold passes of one workload of the paper's reproduction, checks every
// output against a reference, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	perfbench --workload functional|markovian|general|cold_solve
//	          [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 it runs cold passes (a fresh experiments.Runner, Store and
// sessions each) for --seconds and reports the end-to-end metrics. With
// --trace 1 it runs a traced replay of the same operations through the
// layers' public functions between two untraced passes, then one
// single-worker pass, and reports the per-layer metrics. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// Pass-count and set-up repetition limits.
const (
	minPasses = 2
	setupReps = 21
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	traceOut string
	workers  int
}

// errProbe asks run to exit at once (see setUp).
var errProbe = errors.New("probe")

// parseOptions parses and checks the command line.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: functional, markovian, general or cold_solve")
	seed := fs.Uint64("seed", paperSeed, "simulation seed (pipeline.SimSettings.Seed)")
	seconds := fs.Float64("seconds", 10, "how long to run timed passes")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	root := fs.String("root", ".", "repository root")
	traceOut := fs.String("trace-out", "", "span JSON file of the traced run (default <root>/.bench_build/trace-<workload>.json)")
	probe := fs.Bool("probe", false, "exit at once: times process start-up during set-up")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *probe {
		return options{}, errProbe
	}
	if _, ok := workloads[*workload]; !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		return options{}, fmt.Errorf("want --workload one of %v, --trace 0 or 1 and --seconds > 0", workloadNames)
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, traceOut: *traceOut, workers: runtime.NumCPU()}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.root, ".bench_build", "trace-"+o.workload+".json")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if errors.Is(err, errProbe) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	setupS, refs, err := setUp(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	var res result
	if o.trace {
		res, err = tracedRun(o, refs, stderr)
	} else {
		res, err = timedRun(o, refs, setupS, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setUp loads the workload's references setupReps times, each time after
// starting and waiting for a copy of this process that exits at once, and
// returns the median time of one start-up plus load.
func setUp(o options) (float64, *references, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	var (
		times []float64
		refs  *references
	)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := exec.Command(self, "-probe").Run(); err != nil {
			return 0, nil, fmt.Errorf("start-up probe: %w", err)
		}
		if refs, err = loadReferences(o.root, o.workload); err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return quantile(times, 0.5), refs, nil
}

// passResult is what one pass measured and produced.
type passResult struct {
	wall, cpu, allocMB float64
	outputs            map[string]string
	failed             int
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// newEnv returns the environment of one cold pass: a fresh Runner with a
// fresh counting store, at the given worker count.
func newEnv(o options, workers int) (*env, *countingStore) {
	store := newCountingStore()
	rpcSim, streamSim := simSettings(o.seed, workers)
	return &env{
		root:      o.root,
		workers:   workers,
		scale:     experiments.Full,
		runner:    experiments.NewRunner(pipeline.Config{Workers: workers, Store: store}),
		rpcSim:    rpcSim,
		streamSim: streamSim,
		outputs:   make(map[string]string),
	}, store
}

// runPass runs every operation of the workload once on e, through the
// Runner or (when e.rp is set) through the traced replay, and checks each
// output against the references and against first (the run's first pass,
// nil for the first pass itself).
func runPass(o options, e *env, refs *references, first map[string]string, stderr io.Writer) passResult {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuSeconds(), time.Now()
	failed := 0
	for _, op := range workloads[o.workload] {
		var (
			out string
			err error
		)
		if e.rp != nil {
			err = e.rp.rec.do("experiments."+op.name, func() (err error) {
				out, err = op.replay(e)
				return err
			})
		} else {
			out, err = op.run(e)
		}
		if err == nil {
			err = refs.check(o.workload, op.name, o.seed, out, e.outputs)
		}
		if err == nil && first != nil && out != first[op.name] {
			err = fmt.Errorf("output differs from the run's first pass: %w", exact(out, first[op.name]))
		}
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "perfbench: %s: %s: %v\n", o.workload, op.name, err)
		}
		e.outputs[op.name] = out
	}
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return passResult{wall: wall, cpu: cpu, allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		outputs: e.outputs, failed: failed}
}

// timedRun runs cold passes until o.seconds have passed (at least
// minPasses) and reports the end-to-end metrics.
func timedRun(o options, refs *references, setupS float64, stderr io.Writer) (result, error) {
	var walls, cpus, allocs []float64
	var first map[string]string
	failed, attempted := 0, 0
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds() < o.seconds {
		e, _ := newEnv(o, o.workers)
		p := runPass(o, e, refs, first, stderr)
		if first == nil {
			first = p.outputs
		}
		walls, cpus, allocs = append(walls, p.wall), append(cpus, p.cpu), append(allocs, p.allocMB)
		failed += p.failed
		attempted += len(workloads[o.workload])
	}
	m := withUnits(endToEnd, map[string]float64{
		"setup_s":     setupS,
		"pass_s":      quantile(walls, 0.5),
		"pass_s_q1":   quantile(walls, 0.25),
		"pass_s_q3":   quantile(walls, 0.75),
		"cpu_s":       quantile(cpus, 0.5),
		"alloc_mb":    quantile(allocs, 0.5),
		"peak_rss_mb": peakRSSMB(),
	})
	fmt.Fprintf(stderr, "perfbench: %s seed %d workers %d: %d passes, pass_s %v\n",
		o.workload, o.seed, o.workers, len(walls), walls)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tracedRun runs an untraced pass, a traced replay pass, a second
// untraced pass and a single-worker pass, requires all of them to print
// the same bytes, and reports the per-layer metrics. The tracing overhead
// is taken against the mean of the two untraced passes around the traced
// one.
func tracedRun(o options, refs *references, stderr io.Writer) (result, error) {
	e, store := newEnv(o, o.workers)
	before := runPass(o, e, refs, nil, stderr)

	rec := newRecorder()
	te, _ := newEnv(o, o.workers)
	te.runner = nil
	te.rp = newReplayer(rec, o.workers)
	passSpan := rec.begin("pass")
	traced := runPass(o, te, refs, before.outputs, stderr)
	rec.end(passSpan)

	ae, _ := newEnv(o, o.workers)
	after := runPass(o, ae, refs, before.outputs, stderr)
	se, _ := newEnv(o, 1)
	serial := runPass(o, se, refs, before.outputs, stderr)

	if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
		return result{}, err
	}
	if err := rec.writeJSON(o.traceOut); err != nil {
		return result{}, err
	}
	passes := []passResult{before, traced, after, serial}
	failed := 0
	for _, p := range passes {
		failed += p.failed
	}
	attempted := len(passes) * len(workloads[o.workload])
	v := layerMetrics(rec, te.rp.c, store, rec.spans[passSpan].End-rec.spans[passSpan].Start)
	v["trace.overhead_frac"] = 2*traced.wall/(before.wall+after.wall) - 1
	v["trace.serial_pass_s"] = serial.wall
	v["fail_frac"] = float64(failed) / float64(attempted)
	m := withUnits(perLayer(), v)
	if g, h := te.rp.store.gets.Load(), te.rp.store.hits.Load(); g != store.gets.Load() || h != store.hits.Load() {
		fmt.Fprintf(stderr, "perfbench: store traffic differs: runner %d gets %d hits, replay %d gets %d hits\n",
			store.gets.Load(), store.hits.Load(), g, h)
	}
	fmt.Fprintf(stderr, "perfbench: %s traced: untraced %.3fs, traced %.3fs, untraced %.3fs, serial %.3fs; spans in %s\n",
		o.workload, before.wall, traced.wall, after.wall, serial.wall, o.traceOut)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (Python's statistics.quantiles "inclusive" method).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
