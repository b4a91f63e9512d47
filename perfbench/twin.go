package main

// The traced twin: a copy of internal/core's driver (core/driver.go) and of
// the run glue in core/run.go, built only from the public functions of
// direct, cachesim, bpred, uarch, memo and snapshot. It times and counts
// every call it makes into direct and cachesim, times the snapshot load and
// import separately, and attaches a wall-timebase span tracer to the memo
// engine to split its time into record, replay and resume.
//
// Its Result must equal fastsim.Run's (WallTime, Snapshot and Shared
// zeroed); that equality and trace.overhead_ratio are what show drift when
// core's driver changes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"fastsim/internal/bpred"
	"fastsim/internal/cachesim"
	"fastsim/internal/core"
	"fastsim/internal/direct"
	"fastsim/internal/memo"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/snapshot"
	"fastsim/internal/uarch"
)

// callTally counts and times the twin driver's calls into direct and
// cachesim. Trivial accessors (Rec, Load, Store, NumRecs, ...) are neither
// timed nor counted.
type callTally struct {
	directCalls     uint64 // RunToNextControlPoint, Rollback and Trim calls
	directRollbacks uint64
	directNS        int64

	loadRequests uint64
	loadPolls    uint64
	stores       uint64
	cacheNS      int64
}

// twinRunError mirrors core's runError: the panic payload that carries an
// environment error out of the pipeline's call tree.
type twinRunError struct{ err error }

// twinDriver is core's driver with every direct and cachesim call timed.
type twinDriver struct {
	eng   *direct.Engine
	pred  bpred.Predictor
	cache *cachesim.Cache
	t     callTally

	recCursor int
	recHead   int
	lqHead    int
	sqHead    int

	liveReqs map[int]int

	retiredInsts  uint64
	retiredLoads  uint64
	retiredStores uint64
	halted        bool

	popsSinceTrim int
}

func newTwinDriver(prog *program.Program, cfg *core.Config) *twinDriver {
	var pred bpred.Predictor
	if cfg.BPred.Kind == core.BPredGshare {
		pred = bpred.NewGshare(cfg.BPred.Entries, cfg.BPred.HistoryBits)
	} else {
		pred = bpred.New(cfg.BPred.Entries)
	}
	return &twinDriver{
		eng:      direct.New(prog, pred),
		pred:     pred,
		cache:    cachesim.New(cfg.Cache),
		liveReqs: make(map[int]int),
	}
}

func (d *twinDriver) fail(format string, args ...interface{}) {
	panic(twinRunError{fmt.Errorf(format, args...)})
}

func (d *twinDriver) runDirect() {
	start := time.Now()
	_, err := d.eng.RunToNextControlPoint()
	d.t.directNS += int64(time.Since(start))
	d.t.directCalls++
	if err != nil {
		d.fail("core: direct execution: %w", err)
	}
}

func (d *twinDriver) NextOutcome() uarch.Outcome {
	if d.recCursor >= d.eng.NumRecs() {
		d.runDirect()
	}
	rec := d.eng.Rec(d.recCursor)
	out := uarch.Outcome{
		Kind:         rec.Kind,
		PC:           rec.PC,
		Taken:        rec.Taken,
		Mispredicted: rec.Mispredicted,
		Target:       rec.Target,
		RecIdx:       d.recCursor,
	}
	d.recCursor++
	return out
}

func (d *twinDriver) ensure(have func() int, want int) {
	for want >= have() {
		if d.eng.Halted {
			d.fail("core: pipeline references queue entry %d past program end", want)
		}
		d.runDirect()
	}
}

func (d *twinDriver) IssueLoad(lqIdx int, now uint64) int {
	d.ensure(d.eng.NumLoads, lqIdx)
	l := d.eng.Load(lqIdx)
	start := time.Now()
	id, delay := d.cache.LoadRequest(l.Addr, now)
	d.t.cacheNS += int64(time.Since(start))
	d.t.loadRequests++
	d.liveReqs[lqIdx] = id
	return delay
}

func (d *twinDriver) PollLoad(lqIdx int, now uint64) (bool, int) {
	id, ok := d.liveReqs[lqIdx]
	if !ok {
		d.fail("core: poll of load %d with no live request", lqIdx)
	}
	start := time.Now()
	ready, delay := d.cache.LoadPoll(id, now)
	d.t.cacheNS += int64(time.Since(start))
	d.t.loadPolls++
	if ready {
		delete(d.liveReqs, lqIdx)
	}
	return ready, delay
}

func (d *twinDriver) CancelLoad(lqIdx int) {
	if id, ok := d.liveReqs[lqIdx]; ok {
		start := time.Now()
		d.cache.Cancel(id)
		d.t.cacheNS += int64(time.Since(start))
		delete(d.liveReqs, lqIdx)
	}
}

func (d *twinDriver) IssueStore(sqIdx int, now uint64) {
	d.ensure(d.eng.NumStores, sqIdx)
	s := d.eng.Store(sqIdx)
	start := time.Now()
	d.cache.Store(s.Addr, now)
	d.t.cacheNS += int64(time.Since(start))
	d.t.stores++
}

func (d *twinDriver) Rollback(recIdx int) (int, int) {
	rec := d.eng.Rec(recIdx)
	start := time.Now()
	err := d.eng.Rollback(recIdx)
	d.t.directNS += int64(time.Since(start))
	d.t.directCalls++
	d.t.directRollbacks++
	if err != nil {
		d.fail("core: rollback: %w", err)
	}
	d.recCursor = recIdx + 1
	return rec.LQLen, rec.SQLen
}

func (d *twinDriver) RetirePop(insts, loads, stores, recs int) {
	d.ApplyPops(insts, loads, stores, recs)
}

func (d *twinDriver) ApplyPops(insts, loads, stores, recs int) {
	d.retiredInsts += uint64(insts)
	d.retiredLoads += uint64(loads)
	d.retiredStores += uint64(stores)
	d.lqHead += loads
	d.sqHead += stores
	d.recHead += recs

	d.popsSinceTrim += insts
	if d.popsSinceTrim >= 1<<16 {
		d.popsSinceTrim = 0
		start := time.Now()
		d.eng.Trim(d.recHead, d.lqHead, d.sqHead)
		d.t.directNS += int64(time.Since(start))
		d.t.directCalls++
	}
}

func (d *twinDriver) HaltRetired() { d.halted = true }

func (d *twinDriver) Heads() uarch.Heads {
	return uarch.Heads{Rec: d.recHead, LQ: d.lqHead, SQ: d.sqHead}
}

// spanTimes is the memo engine's wall time by episode kind, summed from
// the wall-timebase span trace.
type spanTimes struct {
	recordNS, replayNS, resumeNS int64
}

// twinRun is one traced run: its Result plus what the twin measured.
type twinRun struct {
	res *core.Result

	wallNS   int64 // the whole run, snapshot load included
	runNS    int64 // memo.Engine.Run, or the SlowSim step loop
	loadNS   int64 // snapshot.LoadFile
	importNS int64 // memo.Cache.ImportGraph

	// base is the memo counter state imported from the snapshot, so
	// res.Memo minus base is this run's own work.
	base memo.Stats

	calls callTally
	spans spanTimes
}

// runTwin simulates prog under cfg exactly as core.RunContext does, through
// the traced twin driver. Only the options the benchmark uses are honoured:
// Memoize, Memo, SnapshotLoad with SnapshotStrict, and MaxCycles. trace is
// scratch space for the span trace; it is reset first.
func runTwin(prog *program.Program, cfg core.Config, trace *bytes.Buffer) (tr *twinRun, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SnapshotLoad != "" && !cfg.SnapshotStrict {
		return nil, fmt.Errorf("twin: snapshot loads must be strict")
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 40_000_000_000
	}
	drv := newTwinDriver(prog, &cfg)
	tr = &twinRun{}

	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case twinRunError:
				tr, err = nil, v.err
			case uarch.Desync:
				tr, err = nil, fmt.Errorf("core: %w", v)
			default:
				panic(r)
			}
		}
	}()

	start := time.Now()
	var cycles uint64
	var memoStats memo.Stats
	var snap core.SnapshotStatus
	if cfg.Memoize {
		eng := memo.NewEngine(prog, cfg.Uarch, drv, cfg.Memo)
		trace.Reset()
		tracer := obs.NewTracer(trace, obs.TracerOptions{Timebase: obs.TimebaseWall})
		eng.Trace = tracer
		if cfg.SnapshotLoad != "" {
			t0 := time.Now()
			img, lerr := snapshot.LoadFile(cfg.SnapshotLoad, core.Fingerprint(prog, &cfg),
				snapshot.FileOptions{Retry: snapshot.DefaultRetry()})
			t1 := time.Now()
			if lerr == nil {
				lerr = eng.Cache.ImportGraph(&img.Graph)
			}
			tr.loadNS = int64(t1.Sub(t0))
			tr.importNS = int64(time.Since(t1))
			if lerr != nil {
				return nil, fmt.Errorf("core: snapshot load %s: %w", cfg.SnapshotLoad, lerr)
			}
			tr.base = eng.Cache.Stats()
			snap.Loaded = true
			snap.LoadedConfigs = len(img.Graph.Keys)
			snap.LoadedActions = len(img.Graph.Actions)
			snap.LoadedBytes = tr.base.Bytes
		}
		t0 := time.Now()
		cycles, err = eng.Run(maxCycles)
		tr.runNS = int64(time.Since(t0))
		memoStats = eng.Cache.Stats()
		if cerr := tracer.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("twin: tracer close: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
	} else {
		pl, perr := uarch.New(cfg.Uarch, prog, drv, prog.Entry)
		if perr != nil {
			return nil, perr
		}
		t0 := time.Now()
		for !pl.Done() {
			if pl.Now > maxCycles {
				return nil, fmt.Errorf("core: exceeded %d cycles without halting", maxCycles)
			}
			pl.Step()
		}
		tr.runNS = int64(time.Since(t0))
		cycles = pl.Now
	}
	wall := time.Since(start)
	tr.wallNS = int64(wall)

	if !drv.halted {
		return nil, fmt.Errorf("core: simulation stopped before the program halted")
	}
	st := drv.eng.St
	preds, miss := drv.pred.Stats()
	tr.res = &core.Result{
		Cycles:        cycles,
		Insts:         drv.retiredInsts,
		RetiredLoads:  drv.retiredLoads,
		RetiredStores: drv.retiredStores,

		Checksum: st.Checksum,
		ExitCode: st.ExitCode,
		Output:   st.Output,

		Direct:           drv.eng.Stats(),
		Cache:            drv.cache.Stats(),
		BPredPredicts:    preds,
		BPredMispredicts: miss,

		Memoized: cfg.Memoize,
		Memo:     memoStats,
		Snapshot: snap,
		WallTime: wall,
	}
	tr.calls = drv.t
	if cfg.Memoize {
		tr.spans, err = sumSpans(trace.Bytes())
		if err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// sumSpans adds up the durations (host microseconds) of the memo engine's
// record, replay and resume spans in a wall-timebase trace. Shadow-verify
// and degraded episodes also run the detailed simulator, so they count as
// record time.
func sumSpans(trace []byte) (spanTimes, error) {
	var st spanTimes
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev struct {
		Ph   string `json:"ph"`
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Dur  int64  `json:"dur"`
	}
	for sc.Scan() {
		line := bytes.TrimSuffix(sc.Bytes(), []byte(","))
		if !bytes.HasPrefix(line, []byte(`{"ph":"X"`)) {
			continue
		}
		ev.Name, ev.Cat, ev.Dur = "", "", 0
		if err := json.Unmarshal(line, &ev); err != nil {
			return st, fmt.Errorf("twin: span trace: %w", err)
		}
		if ev.Cat != "memo" {
			continue
		}
		ns := ev.Dur * int64(time.Microsecond)
		switch ev.Name {
		case obs.SpanRecord, obs.SpanVerify, obs.SpanDegraded:
			st.recordNS += ns
		case obs.SpanResume:
			st.resumeNS += ns
		case "replay":
			st.replayNS += ns
		}
	}
	return st, sc.Err()
}
