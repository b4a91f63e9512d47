package obs

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// Timebase selects the clock a Tracer stamps spans with.
type Timebase uint8

const (
	// TimebaseCycles stamps spans with the simulated cycle counter: the
	// trace is deterministic (byte-identical for a given program and
	// config) and fsvet-clean. One "microsecond" in the viewer is one
	// simulated cycle.
	TimebaseCycles Timebase = iota
	// TimebaseWall stamps spans with host microseconds since the tracer
	// was created — for profiling where the host time goes. Wall traces
	// are inherently non-deterministic.
	TimebaseWall
)

// String returns the CLI spelling of the timebase.
func (t Timebase) String() string {
	if t == TimebaseWall {
		return "wall"
	}
	return "cycles"
}

// Span kind strings for RecordBegin: how the episode reached the detailed
// simulator. They become the "kind" arg of record spans.
const (
	SpanRecord   = "record"   // ordinary miss: a fresh configuration
	SpanVerify   = "verify"   // shadow verification of a cached chain
	SpanDegraded = "degraded" // budget guard: detached detailed-only episode
	SpanResume   = "resume"   // re-driving a replay that stopped mid-episode
)

// TracerOptions configures NewTracer.
type TracerOptions struct {
	// Timebase selects simulated cycles (default, deterministic) or wall
	// microseconds (profiling).
	Timebase Timebase
	// Name labels the trace's process row in the viewer (default
	// "fastsim").
	Name string
}

// traceMaxDepth bounds span nesting: run ⊃ workload ⊃ episode spans, plus
// slack for embedders using SpanBegin.
const traceMaxDepth = 16

// traceSpan is one open span on the tracer's stack.
type traceSpan struct {
	name  string
	kind  string // record spans: how the episode was reached
	start uint64 // timebase units
}

// Tracer writes a hierarchical span trace of one simulation run in the
// Chrome trace-event JSON format, loadable in Perfetto or chrome://tracing.
// Spans follow the run's natural structure — run ⊃ record/replay episodes,
// reclaim, snapshot IO — with instant markers for quarantines and guard
// transitions.
//
// Like the Observer, the zero-cost disabled state is a nil *Tracer: every
// exported method is nil-receiver safe and costs exactly one pointer check,
// so components call hooks unconditionally on their hot paths. A Tracer is
// read-only by construction — it never feeds anything back into the
// simulation, so the Result is bit-identical tracer-on vs. off.
//
// A Tracer is confined to the simulation goroutine and single-use.
type Tracer struct {
	bw     *bufio.Writer
	tb     Timebase
	epoch  time.Time // wall-timebase origin
	buf    []byte    // scratch for one event line
	stack  [traceMaxDepth]traceSpan
	depth  int
	over   int    // pushes dropped past traceMaxDepth (embedder bugs)
	n      uint64 // events written
	closed bool
}

// NewTracer returns a Tracer writing trace-event JSON to w. Call Close to
// terminate the JSON array and flush.
func NewTracer(w io.Writer, opt TracerOptions) *Tracer {
	name := opt.Name
	if name == "" {
		name = "fastsim"
	}
	t := &Tracer{
		bw:    bufio.NewWriter(w),
		tb:    opt.Timebase,
		epoch: time.Now(), //fastsim:allow-wallclock: wall-timebase origin; cycle-timebase traces never read it
		buf:   make([]byte, 0, 256),
	}
	t.bw.WriteString("[") //nolint:errcheck // trace output is best-effort
	t.meta("process_name", name)
	t.meta("thread_name", "sim")
	return t
}

// ts converts a simulated-cycle stamp to the tracer's timebase.
func (t *Tracer) ts(cycle uint64) uint64 {
	if t.tb == TimebaseWall {
		return uint64(time.Since(t.epoch).Microseconds()) //fastsim:allow-wallclock: the wall timebase is profiling-only and never selected by deterministic runs
	}
	return cycle
}

// Events returns the number of trace events written so far.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// --- span hooks; all nil-receiver safe, one pointer check when disabled ---

// RunBegin opens the top-level run span.
func (t *Tracer) RunBegin(cycle uint64) {
	if t == nil {
		return
	}
	t.push("run", "", cycle)
}

// RunEnd closes the run span at the final cycle count.
func (t *Tracer) RunEnd(cycle uint64) {
	if t == nil {
		return
	}
	sp, ok := t.pop()
	if !ok {
		return
	}
	t.begin("X", sp.name, "run", sp.start, t.ts(cycle)-sp.start)
	t.argEnd()
}

// SpanBegin opens a generic named span — for embedders adding their own
// levels (a suite's per-workload spans) around the engine hooks.
func (t *Tracer) SpanBegin(name string, cycle uint64) {
	if t == nil {
		return
	}
	t.push(name, "", cycle)
}

// SpanEnd closes the innermost open span.
func (t *Tracer) SpanEnd(cycle uint64) {
	if t == nil {
		return
	}
	sp, ok := t.pop()
	if !ok {
		return
	}
	t.begin("X", sp.name, "run", sp.start, t.ts(cycle)-sp.start)
	t.argEnd()
}

// RecordBegin opens a detailed-episode span; kind is one of the Span*
// constants (record, verify, degraded, resume).
func (t *Tracer) RecordBegin(kind string, cycle uint64) {
	if t == nil {
		return
	}
	t.push("record", kind, cycle)
}

// RecordEnd closes a detailed-episode span with its payload: the episode's
// cycle count and retired instructions.
func (t *Tracer) RecordEnd(cycle, cycles uint64, insts int64) {
	if t == nil {
		return
	}
	sp, ok := t.pop()
	if !ok {
		return
	}
	t.begin("X", sp.kind, "memo", sp.start, t.ts(cycle)-sp.start)
	t.argU("cycles", cycles)
	t.argI("insts", insts)
	t.argEnd()
}

// ReplayBegin opens a fast-forward chain span.
func (t *Tracer) ReplayBegin(cycle uint64) {
	if t == nil {
		return
	}
	t.push("replay", "", cycle)
}

// ReplayEnd closes a fast-forward chain span with the chain's episode and
// action counts.
func (t *Tracer) ReplayEnd(cycle, episodes, actions uint64) {
	if t == nil {
		return
	}
	sp, ok := t.pop()
	if !ok {
		return
	}
	t.begin("X", sp.name, "memo", sp.start, t.ts(cycle)-sp.start)
	t.argU("episodes", episodes)
	t.argU("actions", actions)
	t.argEnd()
}

// ReclaimBegin opens a p-action reclaim span; op is the policy action
// ("flush", "gc", "minor-gc", "forced-gc").
func (t *Tracer) ReclaimBegin(op string, cycle uint64) {
	if t == nil {
		return
	}
	t.push("reclaim", op, cycle)
}

// ReclaimEnd closes a reclaim span with the footprint before and after, and
// emits a memo.bytes counter sample at the end stamp.
func (t *Tracer) ReclaimEnd(cycle uint64, bytesBefore, bytesAfter int) {
	if t == nil {
		return
	}
	sp, ok := t.pop()
	if !ok {
		return
	}
	end := t.ts(cycle)
	t.begin("X", sp.kind, "memo", sp.start, end-sp.start)
	t.argI("bytes_before", int64(bytesBefore))
	t.argI("bytes_after", int64(bytesAfter))
	t.argEnd()
	t.counter("memo.bytes", end, int64(bytesAfter))
}

// SnapshotBegin opens a snapshot-IO span; op is "load" or "save".
func (t *Tracer) SnapshotBegin(op string, cycle uint64) {
	if t == nil {
		return
	}
	t.push("snapshot", op, cycle)
}

// SnapshotEnd closes a snapshot-IO span with the image shape moved.
func (t *Tracer) SnapshotEnd(cycle uint64, configs, actions, bytes int) {
	if t == nil {
		return
	}
	sp, ok := t.pop()
	if !ok {
		return
	}
	t.begin("X", sp.kind, "snapshot", sp.start, t.ts(cycle)-sp.start)
	t.argI("configs", int64(configs))
	t.argI("actions", int64(actions))
	t.argI("bytes", int64(bytes))
	t.argEnd()
}

// Quarantine marks a corrupt chain eviction as an instant event.
func (t *Tracer) Quarantine(cycle uint64, reason string, actions uint64) {
	if t == nil {
		return
	}
	t.instant("quarantine", "memo", t.ts(cycle))
	t.argS("reason", reason)
	t.argU("actions", actions)
	t.argEnd()
}

// Guard marks a memory-budget guard transition as an instant event.
func (t *Tracer) Guard(cycle uint64, level string, bytes int) {
	if t == nil {
		return
	}
	t.instant("guard", "memo", t.ts(cycle))
	t.argS("level", level)
	t.argI("bytes", int64(bytes))
	t.argEnd()
}

// Close terminates the JSON array and flushes. Open spans (error paths) are
// discarded — the trace stays well-formed. Close is idempotent and returns
// the first write error.
func (t *Tracer) Close() error {
	if t == nil || t.closed {
		return nil
	}
	t.closed = true
	t.bw.WriteString("\n]\n") //nolint:errcheck // checked by Flush below
	return t.bw.Flush()
}

// --- encoding; hand-rolled appends so an enabled tracer stays cheap ---

func (t *Tracer) push(name, kind string, cycle uint64) {
	if t.depth >= traceMaxDepth {
		t.over++
		return
	}
	t.stack[t.depth] = traceSpan{name: name, kind: kind, start: t.ts(cycle)}
	t.depth++
}

func (t *Tracer) pop() (traceSpan, bool) {
	if t.over > 0 {
		// The matching push was dropped by overflow; balance it.
		t.over--
		return traceSpan{}, false
	}
	if t.depth == 0 {
		return traceSpan{}, false
	}
	t.depth--
	return t.stack[t.depth], true
}

// begin starts one complete ("X") event line: everything up to and including
// `"args":{`. kind doubles as the event name when the span carries one.
func (t *Tracer) begin(ph, name, cat string, ts, dur uint64) {
	b := t.sep()
	b = append(b, `{"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","pid":1,"tid":1,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"cat":"`...)
	b = append(b, cat...)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendUint(b, dur, 10)
	b = append(b, `,"args":{`...)
	t.buf = b
}

// instant starts an "i" (instant) event line up to `"args":{`.
func (t *Tracer) instant(name, cat string, ts uint64) {
	b := t.sep()
	b = append(b, `{"ph":"i","s":"t","pid":1,"tid":1,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"cat":"`...)
	b = append(b, cat...)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"args":{`...)
	t.buf = b
}

// counter emits a complete "C" (counter) event.
func (t *Tracer) counter(name string, ts uint64, v int64) {
	b := t.sep()
	b = append(b, `{"ph":"C","pid":1,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"args":{"value":`...)
	b = strconv.AppendInt(b, v, 10)
	b = append(b, `}}`...)
	t.buf = b
	t.flushLine()
}

// meta emits a metadata ("M") event naming the process or thread row.
func (t *Tracer) meta(key, val string) {
	b := t.sep()
	b = append(b, `{"ph":"M","pid":1,"tid":1,"name":"`...)
	b = append(b, key...)
	b = append(b, `","args":{"name":`...)
	b = appendJSONString(b, val)
	b = append(b, `}}`...)
	t.buf = b
	t.flushLine()
}

// sep returns the scratch buffer primed with the inter-event separator.
func (t *Tracer) sep() []byte {
	b := t.buf[:0]
	if t.n > 0 {
		b = append(b, ',')
	}
	b = append(b, '\n')
	return b
}

func (t *Tracer) argU(key string, v uint64) {
	b := t.argKey(key)
	t.buf = strconv.AppendUint(b, v, 10)
}

func (t *Tracer) argI(key string, v int64) {
	b := t.argKey(key)
	t.buf = strconv.AppendInt(b, v, 10)
}

func (t *Tracer) argS(key, v string) {
	b := t.argKey(key)
	t.buf = appendJSONString(b, v)
}

// argKey appends `,"key":` (the comma only after a previous arg).
func (t *Tracer) argKey(key string) []byte {
	b := t.buf
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return b
}

// argEnd closes the args object and the event, and writes the line out.
func (t *Tracer) argEnd() {
	t.buf = append(t.buf, `}}`...)
	t.flushLine()
}

func (t *Tracer) flushLine() {
	t.n++
	t.bw.Write(t.buf) //nolint:errcheck // trace output is best-effort; Close reports the flush error
	t.buf = t.buf[:0]
}

// appendJSONString appends s as a JSON string literal. Span names are
// static, but quarantine reasons interpolate diagnostic values, so quotes,
// backslashes and control bytes are escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
