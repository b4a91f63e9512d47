package main

// The serve-mix workload: an in-process fssrv (2 workers, journal on)
// behind a loopback HTTP listener, driven by two closed-loop clients that
// each POST /v1/run and wait for the reply. Four jobs in five are repeated
// small SPEC-like specs, which the set-up has already recorded into the
// shared cache so they start warm; the fifth is a unique random program
// submitted as assembly, which misses the shared cache and records cold.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastsim"
	"fastsim/internal/server"
	"fastsim/internal/testprog"
)

const (
	serveWorkers = 2
	serveClients = 2
	// traceJobs is the length of one traced pass; counts are per pass.
	traceJobs = 120
	// rssJobs is the length of the pass rss_peak_mb covers: 50 blocks, so
	// 50 unique programs enter the shared cache however fast the jobs run.
	rssJobs = 250
	// jobHeader carries the benchmark's job id to the timing middleware.
	jobHeader = "X-Perfbench-Job"
)

// repeatedSpecs are the small SPEC-like jobs every tenant submits; the
// set-up records each once, so in the measured window they hit the shared
// cache warm.
var repeatedSpecs = []server.JobSpec{
	{Workload: "129.compress", Scale: 0.05},
	{Workload: "130.li", Scale: 0.1},
	{Workload: "124.m88ksim", Scale: 0.1},
	{Workload: "134.perl", Scale: 0.05},
}

// expected is what a job's reply must carry.
type expected struct {
	view   server.ResultView // Cycles, Insts, Checksum, ExitCode
	digest string            // empty when not yet known
}

// serveJob is one submission: a repeated spec, or a unique program given
// by its generator seed.
type serveJob struct {
	repeated int   // index into repeatedSpecs, or -1
	progSeed int64 // testprog seed of a unique job
}

// body is the job's JSON spec.
func (j serveJob) body() ([]byte, error) {
	var spec server.JobSpec
	if j.repeated >= 0 {
		spec = repeatedSpecs[j.repeated]
	} else {
		spec.Asm = testprog.Source(j.progSeed, testprog.DefaultOptions())
	}
	return json.Marshal(spec)
}

// jobList is a run's seeded job sequence: job i's kind is fixed by the
// seed, and unique programs get fresh generator seeds in every pass.
type jobList struct {
	kinds []int // repeated-spec index, or -1 for a unique program
	seed  int64
}

// newJobList deals the jobs in blocks that hold each repeated spec once
// and one unique program, in a seeded order. Every class is then the same
// share of the jobs whatever the seed, and with five classes the median and
// the p90 fall inside a class rather than in a gap between two.
func newJobList(rng *rand.Rand) *jobList {
	block := len(repeatedSpecs) + 1
	l := &jobList{kinds: make([]int, 0, 1<<12), seed: rng.Int63()}
	for len(l.kinds) < cap(l.kinds)-block {
		for _, k := range rng.Perm(block) {
			l.kinds = append(l.kinds, k-1)
		}
	}
	return l
}

// job returns job i of pass p. Generator seeds stay below 2^31, since the
// generated program loads its seed as an immediate, and are distinct for
// i < 2^20 and p < 2^11.
func (l *jobList) job(p, i int) serveJob {
	k := l.kinds[i%len(l.kinds)]
	return serveJob{repeated: k, progSeed: (l.seed + int64(p)<<20 + int64(i)) & (1<<31 - 1)}
}

// serveSetup is the running server and the references of the repeated
// specs.
type serveSetup struct {
	dir      string
	srv      *server.Server
	http     *httptest.Server
	timingOn atomic.Bool // route requests through the timing middleware
	timing   *handlerTimes
	refs     []expected
}

func (s *serveSetup) close() {
	if s == nil {
		return
	}
	s.http.Close()
	s.srv.Close()       //nolint:errcheck // every job has finished; drain cannot time out
	os.RemoveAll(s.dir) //nolint:errcheck // best-effort removal of temporary files
}

// handlerTimes is the timing middleware's record: handler wall time per
// benchmark job id.
type handlerTimes struct {
	mu sync.Mutex
	ns map[int64]int64
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := int64(time.Since(start))
		id, err := strconv.ParseInt(r.Header.Get(jobHeader), 10, 64)
		if err != nil {
			return
		}
		h.mu.Lock()
		h.ns[id] = d
		h.mu.Unlock()
	})
}

// viewOf is the ResultView fields a Result must produce.
func viewOf(r *fastsim.Result) server.ResultView {
	return server.ResultView{Cycles: r.Cycles, Insts: r.Insts, Checksum: r.Checksum, ExitCode: r.ExitCode}
}

// reference simulates a job's program with SlowSim.
func reference(j serveJob) (server.ResultView, error) {
	var prog *fastsim.Program
	var err error
	if j.repeated >= 0 {
		spec := repeatedSpecs[j.repeated]
		w, ok := fastsim.GetWorkload(spec.Workload)
		if !ok {
			return server.ResultView{}, fmt.Errorf("workload %s not registered", spec.Workload)
		}
		prog, err = w.Build(spec.Scale)
	} else {
		prog, err = testprog.Build(j.progSeed, testprog.DefaultOptions())
	}
	if err != nil {
		return server.ResultView{}, err
	}
	res, err := fastsim.Run(prog, fastsim.WithMemoize(false))
	if err != nil {
		return server.ResultView{}, err
	}
	return viewOf(res), nil
}

func setupServe(opt options) (*serveSetup, error) {
	dir, err := os.MkdirTemp(opt.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{
		Workers:     serveWorkers,
		JournalPath: filepath.Join(dir, "jobs.jsonl"),
	})
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort removal of temporary files
		return nil, err
	}
	s := &serveSetup{dir: dir, srv: srv, timing: &handlerTimes{ns: make(map[int64]int64)}}
	plain, timed := srv.Handler(), s.timing.wrap(srv.Handler())
	s.http = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.timingOn.Load() {
			timed.ServeHTTP(w, r)
			return
		}
		plain.ServeHTTP(w, r)
	}))
	client := s.http.Client()
	for i := range repeatedSpecs {
		j := serveJob{repeated: i}
		view, err := reference(j)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("reference %s: %w", repeatedSpecs[i].Workload, err)
		}
		ref := expected{view: view}
		// Record the spec into the shared cache, and keep its digest: every
		// later job of this spec must return the same one.
		got, err := submit(client, s.http.URL, j, -1)
		if err == nil {
			err = got.check(ref)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm %s: %w", repeatedSpecs[i].Workload, err)
		}
		ref.digest = got.Digest
		s.refs = append(s.refs, ref)
	}
	return s, nil
}

// reply is a completed job as the client saw it.
type reply struct {
	server.JobView
	job       serveJob
	id        int64
	latencyNS int64
	doneNS    int64 // completion time, from the start of the pass
}

// check compares the reply with the job's reference.
func (r *reply) check(want expected) error {
	if r.State != server.StateDone || r.Result == nil {
		return fmt.Errorf("job %s ended %s (%s: %s)", r.ID, r.State, r.Code, r.Msg)
	}
	got := server.ResultView{Cycles: r.Result.Cycles, Insts: r.Result.Insts, Checksum: r.Result.Checksum, ExitCode: r.Result.ExitCode}
	if got != want.view {
		return fmt.Errorf("job %s result %+v, reference %+v", r.ID, got, want.view)
	}
	if want.digest != "" && r.Digest != want.digest {
		return fmt.Errorf("job %s digest %s, earlier jobs of the spec %s", r.ID, r.Digest, want.digest)
	}
	return nil
}

// submit runs one job through POST /v1/run; id >= 0 tags it for the
// timing middleware.
func submit(c *http.Client, url string, j serveJob, id int64) (*reply, error) {
	body, err := j.body()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if id >= 0 {
		req.Header.Set(jobHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := int64(time.Since(start))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	r := &reply{job: j, id: id, latencyNS: lat}
	if err := json.Unmarshal(data, &r.JobView); err != nil {
		return nil, fmt.Errorf("decode job view: %w", err)
	}
	return r, nil
}

// drive runs jobs of pass p from two closed-loop clients, until stop
// reports true before a client takes its next job. Job i is tagged for the
// timing middleware with id idBase+i, unless idBase is negative. It returns
// the replies of the jobs that completed and the pass's wall time.
func (s *serveSetup) drive(list *jobList, p int, idBase int64, stop func(taken int) bool, tally *ops) ([]*reply, int64) {
	var (
		mu      sync.Mutex
		next    int
		replies []*reply
		wg      sync.WaitGroup
	)
	client := s.http.Client()
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if stop(next) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				id := int64(-1)
				if idBase >= 0 {
					id = idBase + int64(i)
				}
				r, err := submit(client, s.http.URL, list.job(p, i), id)
				mu.Lock()
				if err != nil {
					tally.fail("job %d: %v", i, err)
				} else {
					r.doneNS = int64(time.Since(start))
					replies = append(replies, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies, int64(time.Since(start))
}

// verify checks every reply against its reference: the set-up's for
// repeated specs, a SlowSim run of the program for unique jobs (computed
// here, after the measured window, on serveWorkers goroutines).
func (s *serveSetup) verify(replies []*reply, tally *ops) {
	errs := make([]error, len(replies))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(replies) {
					return
				}
				r := replies[i]
				if r.job.repeated >= 0 {
					errs[i] = r.check(s.refs[r.job.repeated])
					continue
				}
				view, err := reference(r.job)
				if err != nil {
					errs[i] = fmt.Errorf("reference of job %s: %w", r.ID, err)
					continue
				}
				errs[i] = r.check(expected{view: view})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tally.fail("%v", err)
		} else {
			tally.ok()
		}
	}
}

func runServe(opt options, rng *rand.Rand) (map[string]metric, *ops, error) {
	list := newJobList(rng)
	set, setupS, err := timeSetup(func() (*serveSetup, error) { return setupServe(opt) }, (*serveSetup).close)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer set.close()
	tally := &ops{}
	var values map[string]float64
	if opt.trace {
		values, err = set.traced(opt, list, tally)
	} else {
		values, err = set.timed(opt, list, tally)
		if values != nil {
			values["setup_s"] = setupS
		}
	}
	if err != nil {
		return nil, tally, err
	}
	m, err := emit(values, opt.trace)
	return m, tally, err
}

// timed reports the end-to-end metrics. The shared cache keeps every
// unique program, so memory grows with the jobs completed: rss_peak_mb
// covers a first pass of a fixed rssJobs jobs. The closed loop then runs
// for the run's seconds, and the times and rates come from it.
func (s *serveSetup) timed(opt options, list *jobList, tally *ops) (map[string]float64, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	fixed, _ := s.drive(list, 1, -1, func(taken int) bool { return taken >= rssJobs }, tally)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	replies, wallNS := s.drive(list, 0, -1, func(int) bool { return !time.Now().Before(deadline) }, tally)
	s.verify(append(fixed, replies...), tally)
	if len(replies) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	// Throughput is the median over the window's whole seconds, so a
	// burst of host interference moves it less than a window total would.
	bins := int(wallNS / int64(time.Second))
	if bins < 1 {
		bins = 1
	}
	jobs, insts := make([]float64, bins), make([]float64, bins)
	lat := make([]float64, len(replies))
	for i, r := range replies {
		lat[i] = ms(r.latencyNS)
		b := int(r.doneNS * int64(bins) / wallNS)
		if b >= bins || r.Result == nil {
			continue
		}
		jobs[b]++
		insts[b] += float64(r.Result.Insts)
	}
	binS := float64(wallNS) / 1e9 / float64(bins)
	return map[string]float64{
		"kips":        median(insts) / binS / 1000,
		"jobs_per_s":  median(jobs) / binS,
		"job_ms_p50":  median(lat),
		"job_ms_p90":  tailQuantile(lat),
		"rss_peak_mb": rss,
	}, nil
}

// traced alternates untraced and traced passes of traceJobs jobs for the
// run's seconds. Server counts come from Server.Stats deltas over one
// traced pass and must repeat exactly in every other; times are medians
// over every traced job.
func (s *serveSetup) traced(opt options, list *jobList, tally *ops) (map[string]float64, error) {
	var (
		untracedNS, tracedNS []int64
		handlerMS, overMS    []float64
		gcNS                 int64
		counts               map[string]float64
		all                  []*reply
	)
	fixed := func(taken int) bool { return taken >= traceJobs }
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for p := 0; len(tracedNS) < 2 || time.Now().Before(deadline); p += 2 {
		s.timingOn.Store(false)
		replies, wall := s.drive(list, p, -1, fixed, tally)
		untracedNS = append(untracedNS, wall)
		all = append(all, replies...)

		s.timingOn.Store(true)
		runtime.GC()
		before, g0 := s.srv.Stats(), gcCPU()
		idBase := int64(p+1) * traceJobs
		replies, wall = s.drive(list, p+1, idBase, fixed, tally)
		gcNS += gcCPU() - g0
		got := serverCounts(before, s.srv.Stats())
		tracedNS = append(tracedNS, wall)
		all = append(all, replies...)
		if counts == nil {
			counts = got
		} else if !reflect.DeepEqual(got, counts) {
			tally.fail("server counts differ between traced passes: %v vs %v", got, counts)
		}
		s.timing.mu.Lock()
		for _, r := range replies {
			if h, ok := s.timing.ns[r.id]; ok {
				handlerMS = append(handlerMS, ms(h))
				overMS = append(overMS, ms(r.latencyNS-h))
			}
		}
		s.timing.mu.Unlock()
	}
	s.verify(all, tally)
	v := counts
	v["server.handler_ms_p50"] = median(handlerMS)
	v["http.overhead_ms_p50"] = median(overMS)
	v["runtime.gc_ms"] = ms(gcNS) / float64(len(tracedNS))
	v["trace.overhead_ratio"] = medianNS(tracedNS) / medianNS(untracedNS)
	v["fail_ratio"] = ratio(float64(tally.failed), float64(tally.attempted))
	return v, nil
}

// serverCounts are one traced pass's server counters, as deltas.
func serverCounts(a, b server.Stats) map[string]float64 {
	var acq, warm uint64
	if a.Shared != nil && b.Shared != nil {
		acq, warm = b.Shared.Acquires-a.Shared.Acquires, b.Shared.Warm-a.Shared.Warm
	}
	return map[string]float64{
		"server.journal_appends":   float64(b.JournalAppends - a.JournalAppends),
		"server.shared_warm_ratio": ratio(float64(warm), float64(acq)),
		"server.shed":              float64(b.Shed - a.Shed),
		"server.retries":           float64(b.Retries - a.Retries),
	}
}
