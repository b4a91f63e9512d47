package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"fastsim/internal/faultinject"
	"fastsim/internal/snapshot"
)

// The job journal is an append-only JSONL file recording every lifecycle
// transition of every accepted job:
//
//	accept  — the job is durably admitted (spec included)
//	start   — a worker began attempt N
//	retry   — attempt N failed transiently; attempt N+1 follows
//	done    — the job completed (result digest included)
//	fail    — the job failed with a typed code
//	cancel  — the job was cancelled (client, disconnect, or deadline)
//
// Every record carries an FNV-64a self-checksum and is fsynced before the
// transition it records becomes externally visible, so after a crash at
// any instant the journal is a prefix of the truth: a torn or corrupt
// tail line is dropped on recovery (never trusted, never fatal) and every
// accepted-but-unfinished job is re-queued. The same temp+fsync+rename
// discipline as internal/snapshot (snapshot.WriteAtomic) rewrites the
// journal at recovery, compacting finished jobs away.
type journalRec struct {
	Seq     uint64   `json:"seq"`
	Rec     string   `json:"rec"`
	Job     string   `json:"job"`
	JobSeq  uint64   `json:"job_seq,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Spec    *JobSpec `json:"spec,omitempty"`
	Code    Code     `json:"code,omitempty"`
	Msg     string   `json:"msg,omitempty"`
	Digest  string   `json:"digest,omitempty"`
	// Sum is the FNV-64a hex checksum of the record's JSON encoding with
	// Sum itself empty; recovery re-derives it from the line as written
	// (see verify) and compares.
	Sum string `json:"sum,omitempty"`
}

const (
	recAccept = "accept"
	recStart  = "start"
	recRetry  = "retry"
	recDone   = "done"
	recFail   = "fail"
	recCancel = "cancel"
)

// seal computes and installs the record's self-checksum, returning the
// final encoded line (newline-terminated).
func (r *journalRec) seal() ([]byte, error) {
	r.Sum = ""
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // fnv.Write never fails
	r.Sum = fmt.Sprintf("%016x", h.Sum64())
	b, err = json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// verify checks the record's Sum against line, the bytes it was decoded
// from. The hash is re-derived from the line as written, minus the trailing
// `,"sum":"<hex>"` member seal appended, not from a re-encoding of the
// decoded record: a record sealed by an older build whose JobSpec had a
// field this build no longer knows must still verify.
func (r *journalRec) verify(line []byte) bool {
	if r.Sum == "" {
		return false
	}
	body, ok := bytes.CutSuffix(line, []byte(`,"sum":"`+r.Sum+`"}`))
	if !ok {
		return false
	}
	h := fnv.New64a()
	h.Write(body)        //nolint:errcheck // fnv.Write never fails
	h.Write([]byte{'}'}) //nolint:errcheck // fnv.Write never fails
	return fmt.Sprintf("%016x", h.Sum64()) == r.Sum
}

// journal is the crash-safe job log. A nil *journal (journaling disabled)
// accepts every call as a no-op.
type journal struct {
	path  string
	retry snapshot.RetryPolicy

	// fsync flushes the file; tests substitute it to model fsync failures
	// (nearly impossible to provoke on a real filesystem).
	fsync func(*os.File) error

	// inject, when armed, fires the server.journal.write site inside each
	// append; injMu serializes it with the server's other injector users
	// (the injector itself is single-goroutine).
	inject *faultinject.Injector
	injMu  *sync.Mutex

	mu sync.Mutex
	// fastsim:guarded-by(mu)
	f *os.File
	// fastsim:guarded-by(mu)
	seq uint64
	// fastsim:guarded-by(mu)
	appends uint64
	// fastsim:guarded-by(mu)
	torn uint64
}

// maxJournalLine bounds a single journal record on read. Admission caps
// specs (maxAsmBytes, maxSpecBytes) far below it, so any line this long
// is corruption, not data.
const maxJournalLine = 4 << 20

// readJournal decodes the journal at path, tolerating a torn tail: the
// first undecodable, checksum-failing, or oversized line ends the read,
// and every line after it is discarded (a record after a torn line cannot
// be ordered against the tear, so trusting it would reorder history).
// Returns the surviving records and the number of dropped lines.
func readJournal(path string) (recs []journalRec, dropped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //nolint:errcheck // read-only
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxJournalLine)
	lines := 0
	for sc.Scan() {
		lines++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r journalRec
		if json.Unmarshal(line, &r) != nil || !r.verify(line) {
			// Torn tail: count this and everything after it as dropped.
			dropped = 1
			for sc.Scan() {
				dropped++
			}
			return recs, dropped, nil
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An oversized line can never verify, so it is corruption by
			// definition: treat it like a torn tail (drop it and whatever
			// follows) rather than failing recovery — one bad record must
			// never brick the server.
			return recs, 1, nil
		}
		return recs, 0, err
	}
	return recs, 0, nil
}

// openJournal opens (creating if needed) the append handle at path and
// returns the journal primed to continue after the given last sequence
// number.
func openJournal(path string, lastSeq uint64, retry snapshot.RetryPolicy, inject *faultinject.Injector, injMu *sync.Mutex) (*journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{path: path, retry: retry, fsync: (*os.File).Sync, inject: inject, injMu: injMu, f: f, seq: lastSeq}, nil
}

// append seals and durably writes one record: write + fsync under the
// bounded deterministic-backoff retry policy, with the server.journal.write
// fault site armed inside the attempt. A failed attempt truncates back to
// the pre-write offset before retrying, so a partial line is never
// followed by its own retry (which the torn-tail rule would then discard).
func (j *journal) append(r journalRec) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	r.Seq = j.seq
	line, err := r.seal()
	if err != nil {
		return err
	}
	err = j.retry.Do(func() error {
		if j.inject != nil {
			j.injMu.Lock()
			ferr := j.inject.Transient(faultinject.SiteJournalWrite)
			j.injMu.Unlock()
			if ferr != nil {
				return ferr
			}
		}
		off, serr := j.f.Seek(0, io.SeekEnd)
		if serr != nil {
			return serr
		}
		if _, werr := j.f.Write(line); werr != nil {
			j.f.Truncate(off) //nolint:errcheck // best-effort rollback; a torn line is tolerated on read
			return werr
		}
		if serr := j.fsync(j.f); serr != nil {
			// Roll back on fsync failure too: the line hit the page cache
			// in full, so letting the retry re-write it would duplicate a
			// sealed record and break the strictly-increasing-Seq invariant
			// the torn-tail reasoning relies on. Post-failure page-cache
			// state is unreliable, so the handle is reopened for the retry.
			j.f.Truncate(off) //nolint:errcheck // best-effort rollback; a torn line is tolerated on read
			if nf, oerr := os.OpenFile(j.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); oerr == nil {
				j.f.Close() //nolint:errcheck // superseded handle
				j.f = nf
			}
			return serr
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	j.appends++
	return nil
}

// compact atomically rewrites the journal to exactly recs (temp + fsync +
// rename via snapshot.WriteAtomic) and reopens the append handle. Used at
// recovery to drop finished jobs' history.
func (j *journal) compact(recs []journalRec) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf bytes.Buffer
	seq := uint64(0)
	for i := range recs {
		seq++
		recs[i].Seq = seq
		line, err := recs[i].seal()
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	if err := snapshot.WriteAtomic(j.path, buf.Bytes()); err != nil {
		return err
	}
	old := j.f
	f, err := os.OpenFile(j.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	old.Close() //nolint:errcheck // superseded handle
	j.f = f
	j.seq = seq
	return nil
}

// noteTorn records dropped-line counts from recovery for /v1/stats.
func (j *journal) noteTorn(n int) {
	if j == nil || n == 0 {
		return
	}
	j.mu.Lock()
	j.torn += uint64(n)
	j.mu.Unlock()
}

// stats returns append and torn-tail counters.
func (j *journal) stats() (appends, torn uint64) {
	if j == nil {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.torn
}

// close syncs and closes the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
