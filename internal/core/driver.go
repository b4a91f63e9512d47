package core

import (
	"fmt"

	"fastsim/internal/bpred"
	"fastsim/internal/cachesim"
	"fastsim/internal/direct"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/uarch"
)

// runError is the panic payload used to surface environment errors (e.g. a
// target program jumping to garbage on the committed path) out of the
// pipeline's call tree, which has no error returns on its hot path. Run
// recovers it into an ordinary error.
type runError struct{ err error }

// driver connects the µ-architecture simulator to direct execution and the
// cache simulator. It implements uarch.Env (and memo.Driver): control
// outcomes come from the direct-execution record stream, loads and stores
// go to the cache simulator, and retirement pops the consumed queue
// prefixes. All of its state is "external" in the memoization sense —
// continuous across detailed and fast-forwarded simulation.
type driver struct {
	prog  *program.Program
	eng   *direct.Engine
	pred  bpred.Predictor
	cache *cachesim.Cache

	recCursor int // next control record to hand to fetch
	recHead   int // control records retired
	lqHead    int // lQ entries retired
	sqHead    int // sQ entries retired

	// liveReqs holds the cache request of each in-flight load, indexed by
	// lqIdx & reqMask. Only loads in the active list are in flight, and
	// they hold consecutive lQ indices, so a ring of at least ActiveList
	// entries never needs one slot for two live loads.
	liveReqs []liveReq
	reqMask  int

	retiredInsts  uint64
	retiredLoads  uint64
	retiredStores uint64
	halted        bool

	popsSinceTrim int

	// obs is nil unless an Observer is attached; every hook through it is
	// nil-receiver safe. The driver emits the exactly-once events
	// (rollback, checkpoint stall): its methods run once per real
	// interaction whether the caller is the detailed pipeline, the
	// recorder or the replayer — never during scripted re-drives.
	obs *obs.Observer
}

// registerMetrics publishes the retirement counters and fans out to the
// components the driver owns.
func (d *driver) registerMetrics(r *obs.Registry) {
	r.Counter(obs.MetricRetiredInsts, &d.retiredInsts)
	r.Counter(obs.MetricRetiredLoads, &d.retiredLoads)
	r.Counter(obs.MetricRetiredStores, &d.retiredStores)
	d.cache.RegisterMetrics(r)
	d.eng.RegisterMetrics(r)
	d.pred.RegisterMetrics(r)
}

// liveReq is one liveReqs entry: the cache request id of load lqIdx, or
// id 0 when the slot is free (cachesim never hands out id 0).
type liveReq struct {
	lqIdx int
	id    int
}

// newDriver builds the driver for a pipeline whose active list holds at
// most activeList instructions.
func newDriver(prog *program.Program, cacheCfg cachesim.Config, bp BPredConfig, activeList int) *driver {
	pred := bp.build()
	n := 1
	for n < activeList {
		n <<= 1
	}
	return &driver{
		prog:     prog,
		eng:      direct.New(prog, pred),
		pred:     pred,
		cache:    cachesim.New(cacheCfg),
		liveReqs: make([]liveReq, n),
		reqMask:  n - 1,
	}
}

func (d *driver) fail(format string, args ...interface{}) {
	panic(runError{fmt.Errorf(format, args...)})
}

// NextOutcome hands fetch the next control record, running direct execution
// forward when the record stream is exhausted ("return to direct-execution").
func (d *driver) NextOutcome() uarch.Outcome {
	if d.recCursor >= d.eng.NumRecs() {
		if _, err := d.eng.RunToNextControlPoint(); err != nil {
			d.fail("core: direct execution: %w", err)
		}
	}
	rec := d.eng.Rec(d.recCursor)
	if rec.Kind == direct.KindStall {
		d.obs.CheckpointStall()
	}
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

// ensure advances direct execution until the queue position the pipeline is
// about to touch exists. Fetch can run ahead of direct execution through
// straight-line code (loads and stores before the next control point), and
// in FastSim functional execution always leads the timing simulation.
func (d *driver) ensure(have func() int, want int) {
	for want >= have() {
		if d.eng.Halted {
			d.fail("core: pipeline references queue entry %d past program end", want)
		}
		if _, err := d.eng.RunToNextControlPoint(); err != nil {
			d.fail("core: direct execution: %w", err)
		}
	}
}

func (d *driver) IssueLoad(lqIdx int, now uint64) int {
	d.ensure(d.eng.NumLoads, lqIdx)
	l := d.eng.Load(lqIdx)
	r := &d.liveReqs[lqIdx&d.reqMask]
	if r.id != 0 && r.lqIdx != lqIdx {
		d.fail("core: load %d issued while load %d holds its slot (more loads in flight than the active list)", lqIdx, r.lqIdx)
	}
	id, delay := d.cache.LoadRequest(l.Addr, now)
	*r = liveReq{lqIdx: lqIdx, id: id}
	return delay
}

// live returns the liveReqs entry of load lqIdx, or nil if it has no
// request in flight.
func (d *driver) live(lqIdx int) *liveReq {
	r := &d.liveReqs[lqIdx&d.reqMask]
	if r.id == 0 || r.lqIdx != lqIdx {
		return nil
	}
	return r
}

func (d *driver) PollLoad(lqIdx int, now uint64) (bool, int) {
	r := d.live(lqIdx)
	if r == nil {
		d.fail("core: poll of load %d with no live request", lqIdx)
	}
	ready, delay := d.cache.LoadPoll(r.id, now)
	if ready {
		r.id = 0
	}
	return ready, delay
}

func (d *driver) CancelLoad(lqIdx int) {
	if r := d.live(lqIdx); r != nil {
		d.cache.Cancel(r.id)
		r.id = 0
	}
}

func (d *driver) IssueStore(sqIdx int, now uint64) {
	d.ensure(d.eng.NumStores, sqIdx)
	s := d.eng.Store(sqIdx)
	d.cache.Store(s.Addr, now)
}

func (d *driver) Rollback(recIdx int) (int, int) {
	rec := d.eng.Rec(recIdx)
	if err := d.eng.Rollback(recIdx); err != nil {
		d.fail("core: rollback: %w", err)
	}
	d.recCursor = recIdx + 1
	d.obs.Rollback(recIdx)
	return rec.LQLen, rec.SQLen
}

func (d *driver) RetirePop(insts, loads, stores, recs int) {
	d.ApplyPops(insts, loads, stores, recs)
}

// ApplyPops advances queue heads after in-order retirement and periodically
// releases the consumed queue prefixes back to the direct-execution engine.
func (d *driver) ApplyPops(insts, loads, stores, recs int) {
	d.retiredInsts += uint64(insts)
	d.retiredLoads += uint64(loads)
	d.retiredStores += uint64(stores)
	d.lqHead += loads
	d.sqHead += stores
	d.recHead += recs

	d.popsSinceTrim += insts
	if d.popsSinceTrim >= 1<<16 {
		d.popsSinceTrim = 0
		d.eng.Trim(d.recHead, d.lqHead, d.sqHead)
	}
}

func (d *driver) HaltRetired() { d.halted = true }

func (d *driver) Heads() uarch.Heads {
	return uarch.Heads{Rec: d.recHead, LQ: d.lqHead, SQ: d.sqHead}
}
