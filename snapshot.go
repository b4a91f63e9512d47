package fastsim

import (
	"io"

	"fastsim/internal/inspect"
	"fastsim/internal/snapshot"
)

// Snapshot is a read-only handle on a p-action snapshot file (.fsnap),
// opened with OpenSnapshot. It wraps the offline-inspection decode path:
// every integrity check applies (magic, version, checksums, structural
// validation) but no fingerprint is required, so any program's snapshot can
// be examined by any build — fsinspect and external tools use this instead
// of reaching through internal packages. A Snapshot never feeds a live
// cache; warm starts go through WithSnapshotLoad.
type Snapshot struct {
	img *snapshot.Image
}

// OpenSnapshot reads and decodes the snapshot file at path. Failures
// match the usual sentinels: ErrSnapshotCorrupt for damaged bytes,
// ErrSnapshotVersion for format skew.
func OpenSnapshot(path string) (*Snapshot, error) {
	img, err := snapshot.Inspect(path)
	if err != nil {
		return nil, err
	}
	return &Snapshot{img: img}, nil
}

// Fingerprint returns the (program, processor model) identity the cache
// was recorded under.
func (s *Snapshot) Fingerprint() uint64 { return s.img.Fingerprint }

// Configs returns the number of configurations in the image, shells
// included.
func (s *Snapshot) Configs() int { return len(s.img.Graph.Keys) }

// Actions returns the number of action nodes in the image.
func (s *Snapshot) Actions() int { return len(s.img.Graph.Actions) }

// Stats returns the memoization counter state frozen into the snapshot.
func (s *Snapshot) Stats() MemoStats { return s.img.Graph.Stats }

// Report digests the snapshot into a SnapshotReport: chain shapes, action
// kinds and hot chains. topN bounds the hot-chain listing (0 selects 10).
func (s *Snapshot) Report(topN int) *SnapshotReport {
	return inspect.AnalyzeSnapshot(s.img, topN)
}

// SnapshotReport is the offline digest of one snapshot file, renderable as
// text (Render) or JSON.
type SnapshotReport = inspect.SnapshotReport

// ChainInfo summarizes one configuration's action chain in a
// SnapshotReport.
type ChainInfo = inspect.ChainInfo

// EventsReport is the offline digest of one structured JSONL event stream,
// renderable as text (Render) or JSON.
type EventsReport = inspect.EventsReport

// AnalyzeEvents digests a JSONL event stream (one Event per line) as
// written by an Observer. Unknown event types are counted and otherwise
// ignored, so streams from newer builds still analyze.
func AnalyzeEvents(r io.Reader) (*EventsReport, error) {
	return inspect.AnalyzeEvents(r)
}
