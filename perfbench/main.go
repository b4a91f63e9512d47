// Command perfbench is the repository benchmark. It runs one workload
// through the public entry points (fastsim.Run for simulation, fssrv's HTTP
// handler for the server), checks every output, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload go-warm --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced twin and prints the per-layer metrics. See README.md for the
// workloads, the metrics and which layer metric moves which end-to-end
// metric. perfbench/run.sh builds and runs it from the root of a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and the last set-up's products are the ones measured.
const setupReps = 3

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are a run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// scale overrides the go-* workloads' nominal scale (0 keeps it); the
	// self-test uses it to run small programs.
	scale float64
}

// ops tallies a run's operations and their failures; each failure keeps
// its first few messages for the error report.
type ops struct {
	attempted, failed int
	errs              []string
}

func (o *ops) ok() { o.attempted++ }

func (o *ops) fail(format string, args ...interface{}) {
	o.attempted++
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// run measures one workload and returns its metrics and operation tally.
func run(opt options) (map[string]metric, *ops, error) {
	if opt.workdir == "" {
		return nil, nil, fmt.Errorf("--workdir is required")
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.seed))
	if opt.workload == "serve-mix" {
		return runServe(opt, rng)
	}
	if spec, ok := simWorkloads[opt.workload]; ok {
		return runSim(opt, spec, rng)
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want go-cold, go-warm, go-slow or serve-mix)", opt.workload)
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "go-cold, go-warm, go-slow or serve-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 35, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&opt.workdir, "workdir", "", "directory for temporary files")
	flag.Parse()
	opt.trace = trace == 1

	metrics, tally, err := run(opt)
	if tally != nil {
		for _, e := range tally.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	rep := report{
		Correct:   tally.failed == 0,
		Attempted: tally.attempted,
		Failed:    tally.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// --- small statistics helpers ---

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the p90, or, with fewer than 100 samples, the highest
// quantile that still has ten samples beyond it (the median at 20).
func tailQuantile(xs []float64) float64 {
	q := 0.9
	if n := float64(len(xs)); n < 100 {
		q = 1 - 10/n
		if q < 0.5 {
			q = 0.5
		}
	}
	return quantile(xs, q)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// medianNS is the median of ns durations in milliseconds.
func medianNS(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = ms(v)
	}
	return median(xs)
}

// cpuNS returns the CPU time the process has used so far, all threads
// together, in nanoseconds. Unlike wall time it leaves out the time a
// shared host runs other tenants instead of this VM (steal time); see the
// README's Host noise.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// timeSetup runs setup setupReps times and returns the median of the CPU
// seconds each took; every repeat but the last is released with its
// cleanup.
func timeSetup[T any](setup func() (T, error), cleanup func(T)) (T, float64, error) {
	var got T
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			cleanup(got)
		}
		runtime.GC()
		start := cpuNS()
		v, err := setup()
		if err != nil {
			return got, 0, err
		}
		secs = append(secs, float64(cpuNS()-start)/1e9)
		got = v
	}
	return got, median(secs), nil
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's peak
// resident-set mark, so the next peakRSSMB reading covers only what runs
// after it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
