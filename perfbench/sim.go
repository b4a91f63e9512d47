package main

// The go-* workloads: 099.go through fastsim.Run, cold (FastSim),
// warm-started from a snapshot (FastSim) and without memoization (SlowSim).

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"fastsim"
	"fastsim/internal/cachesim"
	"fastsim/internal/core"
	"fastsim/internal/direct"
	"fastsim/internal/memo"
	"fastsim/internal/program"
)

// simSpec describes one go-* workload.
type simSpec struct {
	memoize bool // FastSim, or SlowSim when false
	warm    bool // warm-start from a snapshot built in set-up
	// slowTwin makes the traced run also time a SlowSim twin of the
	// program for uarch.self_ms: under FastSim the pipeline is stepped
	// inside memo.Engine, where the twin cannot time it apart.
	slowTwin bool
}

var simWorkloads = map[string]simSpec{
	"go-cold": {memoize: true, slowTwin: true},
	"go-warm": {memoize: true, warm: true},
	"go-slow": {},
}

const (
	// simProgram is the most record-heavy program of the suite: at scale
	// 1 it simulates 9.5% of its instructions in detail.
	simProgram = "099.go"
	// The seed picks the scale within simScaleBand of simScale.
	simScale     = 1.0
	simScaleBand = 0.02
	// minSimOps is the fewest runs a measurement makes, however short
	// --seconds is.
	minSimOps = 3
)

// simSetup is what a go-* run builds before it measures.
type simSetup struct {
	prog      *program.Program
	ref       *core.Result // the SlowSim reference
	snap      string       // go-warm's snapshot file
	snapBytes int64
}

func (s *simSetup) close() {
	if s != nil && s.snap != "" {
		os.Remove(s.snap) //nolint:errcheck // best-effort removal of a temporary file
	}
}

// options are the fastsim.Run options of one of the workload's runs.
func (spec simSpec) options(snap string) []fastsim.Option {
	if !spec.memoize {
		return []fastsim.Option{fastsim.WithMemoize(false)}
	}
	if spec.warm {
		return []fastsim.Option{fastsim.WithSnapshotLoad(snap), fastsim.WithSnapshotStrict()}
	}
	return nil
}

// config is the Config fastsim.Run builds from opts, for the traced twin.
func config(opts []fastsim.Option) core.Config {
	cfg := fastsim.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// setupSim builds the program, its SlowSim reference and, for go-warm, the
// snapshot that later runs load.
func setupSim(opt options, spec simSpec, scale float64) (*simSetup, error) {
	w, ok := fastsim.GetWorkload(simProgram)
	if !ok {
		return nil, fmt.Errorf("workload %s not registered", simProgram)
	}
	prog, err := w.Build(scale)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", simProgram, err)
	}
	ref, err := fastsim.Run(prog, fastsim.WithMemoize(false))
	if err != nil {
		return nil, fmt.Errorf("SlowSim reference: %w", err)
	}
	s := &simSetup{prog: prog, ref: ref}
	if !spec.warm {
		return s, nil
	}
	s.snap = filepath.Join(opt.workdir, fmt.Sprintf("go-warm-%d.fsnap", os.Getpid()))
	cold, err := fastsim.Run(prog, fastsim.WithSnapshotSave(s.snap))
	if err != nil {
		s.close()
		return nil, fmt.Errorf("snapshot build: %w", err)
	}
	if err := checkFacts(cold, ref); err != nil {
		s.close()
		return nil, fmt.Errorf("snapshot build: %w", err)
	}
	s.snapBytes = int64(cold.Snapshot.SavedBytes)
	return s, nil
}

// simFacts are the deterministic fields of a Result that FastSim, cold or
// warm, must share with SlowSim.
type simFacts struct {
	Cycles, Insts                   uint64
	RetiredLoads, RetiredStores     uint64
	Checksum, ExitCode              uint32
	Output                          string
	Direct                          direct.Stats
	Cache                           cachesim.Stats
	BPredPredicts, BPredMispredicts uint64
}

func factsOf(r *core.Result) simFacts {
	return simFacts{
		Cycles: r.Cycles, Insts: r.Insts,
		RetiredLoads: r.RetiredLoads, RetiredStores: r.RetiredStores,
		Checksum: r.Checksum, ExitCode: r.ExitCode, Output: string(r.Output),
		Direct: r.Direct, Cache: r.Cache,
		BPredPredicts: r.BPredPredicts, BPredMispredicts: r.BPredMispredicts,
	}
}

// checkFacts reports whether got matches the reference on the
// deterministic fields.
func checkFacts(got, ref *core.Result) error {
	g, w := factsOf(got), factsOf(ref)
	if reflect.DeepEqual(g, w) {
		return nil
	}
	return fmt.Errorf("result differs from the SlowSim reference: cycles %d/%d insts %d/%d checksum %#x/%#x",
		g.Cycles, w.Cycles, g.Insts, w.Insts, g.Checksum, w.Checksum)
}

// checkRun checks one fastsim.Run result of the workload.
func checkRun(spec simSpec, res *core.Result, set *simSetup) error {
	if err := checkFacts(res, set.ref); err != nil {
		return err
	}
	if spec.warm && !res.Snapshot.Loaded {
		return fmt.Errorf("warm run did not load its snapshot")
	}
	return nil
}

// perRun subtracts the counters a warm start imported from its snapshot,
// leaving the run's own memo work.
func perRun(s, base memo.Stats) memo.Stats {
	s.Lookups -= base.Lookups
	s.Hits -= base.Hits
	s.EpisodesRecord -= base.EpisodesRecord
	s.EpisodesReplay -= base.EpisodesReplay
	s.ActionsReplayed -= base.ActionsReplayed
	s.DetailedInsts -= base.DetailedInsts
	s.DetailedCycles -= base.DetailedCycles
	return s
}

func runSim(opt options, spec simSpec, rng *rand.Rand) (map[string]metric, *ops, error) {
	scale := simScale * (1 + simScaleBand*(2*rng.Float64()-1))
	if opt.scale > 0 {
		scale = opt.scale
	}
	set, setupS, err := timeSetup(func() (*simSetup, error) { return setupSim(opt, spec, scale) }, (*simSetup).close)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer set.close()
	runOpts := spec.options(set.snap)
	tally := &ops{}
	var values map[string]float64
	if opt.trace {
		values, err = traceSim(opt, spec, set, runOpts, tally)
	} else {
		values, err = timeSim(opt, spec, set, runOpts, tally)
		values["setup_s"] = setupS
	}
	if err != nil {
		return nil, tally, err
	}
	m, err := emit(values, opt.trace)
	return m, tally, err
}

// timeSim measures fastsim.Run back to back for the run's seconds. Each
// run starts after a forced GC, like a fresh process would. A run's time
// is the CPU time the process spends in it, GC workers included.
func timeSim(opt options, spec simSpec, set *simSetup, runOpts []fastsim.Option, tally *ops) (map[string]float64, error) {
	// One run outside the window, so the runtime's lazy set-up is not timed.
	if _, err := fastsim.Run(set.prog, runOpts...); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	var cpu []float64
	var total float64
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for keepGoing(len(cpu), tally, deadline) {
		runtime.GC()
		start := cpuNS()
		res, err := fastsim.Run(set.prog, runOpts...)
		d := ms(cpuNS() - start)
		if err != nil {
			tally.fail("run: %v", err)
			continue
		}
		if err := checkRun(spec, res, set); err != nil {
			tally.fail("%v", err)
			continue
		}
		tally.ok()
		cpu = append(cpu, d)
		total += d
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if len(cpu) == 0 {
		return nil, fmt.Errorf("no run succeeded")
	}
	p50 := median(cpu)
	return map[string]float64{
		"kips":        float64(set.ref.Insts) / p50, // insts per ms is kinst/s
		"jobs_per_s":  1000 * float64(len(cpu)) / total,
		"job_ms_p50":  p50,
		"job_ms_p90":  tailQuantile(cpu),
		"rss_peak_mb": rss,
	}, nil
}

// keepGoing reports whether a measurement loop with done good runs so far
// should make another: until the deadline, and past it until minSimOps runs
// succeeded or as many failed.
func keepGoing(done int, tally *ops, deadline time.Time) bool {
	return time.Now().Before(deadline) || (done < minSimOps && tally.failed < minSimOps)
}

// gcCPU reads the Go runtime's cumulative GC CPU time in nanoseconds.
func gcCPU() int64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return int64(s[0].Value.Float64() * 1e9)
}

// traceSim alternates untraced fastsim.Run calls with traced twin runs for
// the run's seconds and reports the per-layer metrics. Counts come from one
// traced run and must repeat exactly in every other; times are medians.
func traceSim(opt options, spec simSpec, set *simSetup, runOpts []fastsim.Option, tally *ops) (map[string]float64, error) {
	cfg, slowCfg := config(runOpts), config(simSpec{}.options(""))
	var (
		buf                          bytes.Buffer
		untraced, traced             []int64
		directNS, cacheNS, selfNS    []int64
		uarchNS                      []int64
		recordNS, replayNS, resumeNS []int64
		loadNS, importNS             []int64
		gcNS                         int64
		counts                       map[string]float64
	)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for keepGoing(len(traced), tally, deadline) {
		runtime.GC()
		start := time.Now()
		res, err := fastsim.Run(set.prog, runOpts...)
		untraced = append(untraced, int64(time.Since(start)))
		if err != nil {
			tally.fail("run: %v", err)
			continue
		}
		if err := checkRun(spec, res, set); err != nil {
			tally.fail("%v", err)
			continue
		}
		tally.ok()

		runtime.GC()
		g0 := gcCPU()
		tr, err := runTwin(set.prog, cfg, &buf)
		gcNS += gcCPU() - g0
		if err != nil {
			tally.fail("traced run: %v", err)
			continue
		}
		if err := sameResult(tr.res, res); err != nil {
			tally.fail("%v", err)
			continue
		}
		got := layerCounts(spec, set, tr)
		if counts == nil {
			counts = got
		} else if !reflect.DeepEqual(got, counts) {
			tally.fail("per-layer counts differ between traced runs: %v vs %v", got, counts)
			continue
		}
		tally.ok()
		traced = append(traced, tr.wallNS)
		c := tr.calls
		directNS = append(directNS, c.directNS)
		cacheNS = append(cacheNS, c.cacheNS)
		selfNS = append(selfNS, tr.runNS-c.directNS-c.cacheNS)
		recordNS = append(recordNS, tr.spans.recordNS)
		replayNS = append(replayNS, tr.spans.replayNS)
		resumeNS = append(resumeNS, tr.spans.resumeNS)
		loadNS = append(loadNS, tr.loadNS)
		importNS = append(importNS, tr.importNS)
		if !spec.slowTwin {
			continue
		}
		sl, err := runTwin(set.prog, slowCfg, &buf)
		if err == nil {
			err = checkFacts(sl.res, set.ref)
		}
		if err != nil {
			tally.fail("traced SlowSim run: %v", err)
			continue
		}
		tally.ok()
		uarchNS = append(uarchNS, sl.runNS-sl.calls.directNS-sl.calls.cacheNS)
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced run succeeded")
	}
	v := counts
	v["direct.busy_ms"] = medianNS(directNS)
	v["cachesim.busy_ms"] = medianNS(cacheNS)
	if spec.memoize {
		v["memo.self_ms"] = medianNS(selfNS)
		v["memo.record_ms"] = medianNS(recordNS)
		v["memo.replay_ms"] = medianNS(replayNS)
		v["memo.resume_ms"] = medianNS(resumeNS)
	} else {
		v["uarch.self_ms"] = medianNS(selfNS)
	}
	if spec.slowTwin {
		v["uarch.self_ms"] = medianNS(uarchNS)
	}
	if spec.warm {
		v["snapshot.load_ms"] = medianNS(loadNS)
		v["memo.import_ms"] = medianNS(importNS)
	}
	v["runtime.gc_ms"] = ms(gcNS) / float64(len(traced))
	v["trace.overhead_ratio"] = medianNS(traced) / medianNS(untraced)
	v["fail_ratio"] = ratio(float64(tally.failed), float64(tally.attempted))
	return v, nil
}

// sameResult checks the traced twin's Result against fastsim.Run's, with
// the how-the-run-went fields zeroed.
func sameResult(twin, res *core.Result) error {
	a, b := *twin, *res
	a.WallTime, b.WallTime = 0, 0
	a.Snapshot, b.Snapshot = core.SnapshotStatus{}, core.SnapshotStatus{}
	a.Shared, b.Shared = core.SharedStatus{}, core.SharedStatus{}
	if reflect.DeepEqual(a, b) {
		return nil
	}
	return fmt.Errorf("traced twin Result differs from fastsim.Run's: cycles %d/%d insts %d/%d memo %+v/%+v",
		a.Cycles, b.Cycles, a.Insts, b.Insts, a.Memo, b.Memo)
}

// layerCounts are a traced run's deterministic per-layer metrics.
func layerCounts(spec simSpec, set *simSetup, tr *twinRun) map[string]float64 {
	c, r := tr.calls, tr.res
	v := map[string]float64{
		"direct.calls":            float64(c.directCalls),
		"direct.insts":            float64(r.Direct.Insts),
		"direct.wrong_path_insts": float64(r.Direct.WrongPathInsts),
		"direct.rollbacks":        float64(c.directRollbacks),
		"cachesim.load_requests":  float64(c.loadRequests),
		"cachesim.load_polls":     float64(c.loadPolls),
		"cachesim.polls_per_load": ratio(float64(c.loadPolls), float64(c.loadRequests)),
		"cachesim.stores":         float64(c.stores),
	}
	if !spec.memoize {
		v["uarch.cycles"] = float64(r.Cycles)
		return v
	}
	m := perRun(r.Memo, tr.base)
	v["uarch.cycles"] = float64(m.DetailedCycles)
	v["memo.detailed_insts"] = float64(m.DetailedInsts)
	v["memo.episodes_recorded"] = float64(m.EpisodesRecord)
	v["memo.episodes_replayed"] = float64(m.EpisodesReplay)
	v["memo.actions_replayed"] = float64(m.ActionsReplayed)
	v["memo.hit_ratio"] = ratio(float64(m.Hits), float64(m.Lookups))
	v["memo.peak_bytes"] = float64(m.PeakBytes)
	if spec.warm {
		v["snapshot.bytes"] = float64(set.snapBytes)
	}
	return v
}
