package inspect

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"fastsim/internal/obs"
	"fastsim/internal/stats"
)

// TimelineEntry is one quarantine, guard or snapshot occurrence in cycle
// order.
type TimelineEntry struct {
	Cycle   uint64 `json:"cycle"`
	Type    string `json:"type"`
	Detail  string `json:"detail,omitempty"`  // quarantine reason / guard level / snapshot op
	Actions uint64 `json:"actions,omitempty"` // quarantine: evicted nodes
	Bytes   int    `json:"bytes,omitempty"`   // guard: footprint at transition
}

// EventsReport is the digest of one JSONL event stream.
type EventsReport struct {
	Events uint64            `json:"events"`
	ByType map[string]uint64 `json:"by_type"`

	// Detailed (recording) episodes.
	Records      uint64 `json:"records"`
	RecordCycles uint64 `json:"record_cycles"`
	RecordInsts  int64  `json:"record_insts"`
	// RecordLenHist is the distribution of episode lengths in cycles.
	RecordLenHist stats.Histogram `json:"record_len_hist"`

	// Fast-forward chains.
	Chains        uint64 `json:"chains"`
	ChainEpisodes uint64 `json:"chain_episodes"`
	ChainActions  uint64 `json:"chain_actions"`
	// ChainActionsHist / ChainEpisodesHist are the per-chain reuse
	// distributions: actions and episodes replayed per unbroken chain.
	ChainActionsHist  stats.Histogram `json:"chain_actions_hist"`
	ChainEpisodesHist stats.Histogram `json:"chain_episodes_hist"`

	// Timeline is the ordered quarantine / guard / snapshot record.
	Timeline []TimelineEntry `json:"timeline"`
}

// AnalyzeEvents digests a JSONL event stream (obs.Event per line). Unknown
// event types are counted and otherwise ignored, so streams from newer
// builds still analyze.
func AnalyzeEvents(r io.Reader) (*EventsReport, error) {
	rep := &EventsReport{ByType: make(map[string]uint64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("inspect: events line %d: %w", line, err)
		}
		rep.Events++
		rep.ByType[ev.Type]++
		switch ev.Type {
		case obs.EvRecordEnd:
			rep.Records++
			rep.RecordCycles += ev.Cycles
			rep.RecordInsts += ev.Insts
			rep.RecordLenHist.Add(ev.Cycles)
		case obs.EvReplayEnd:
			rep.Chains++
			rep.ChainEpisodes += ev.Episodes
			rep.ChainActions += ev.Actions
			rep.ChainActionsHist.Add(ev.Actions)
			rep.ChainEpisodesHist.Add(ev.Episodes)
		case obs.EvQuarantine:
			rep.Timeline = append(rep.Timeline, TimelineEntry{
				Cycle: ev.Cycle, Type: "quarantine", Detail: ev.Reason, Actions: ev.Actions,
			})
		case obs.EvGuard:
			rep.Timeline = append(rep.Timeline, TimelineEntry{
				Cycle: ev.Cycle, Type: "guard", Detail: ev.Op, Bytes: ev.Bytes,
			})
		case obs.EvSnapshot:
			rep.Timeline = append(rep.Timeline, TimelineEntry{
				Cycle: ev.Cycle, Type: "snapshot", Detail: ev.Op, Actions: ev.Actions, Bytes: ev.Bytes,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("inspect: events: %w", err)
	}
	return rep, nil
}

// Render writes the human-readable form of the report.
func (r *EventsReport) Render(w io.Writer) {
	fmt.Fprintf(w, "events: %d\n", r.Events)
	for _, k := range sortedKeys(r.ByType) {
		fmt.Fprintf(w, "    %-18s %d\n", k, r.ByType[k])
	}
	fmt.Fprintf(w, "\n  recorded episodes: %d (%d cycles, %d insts)\n",
		r.Records, r.RecordCycles, r.RecordInsts)
	fmt.Fprintf(w, "%s", indent(r.RecordLenHist.Render("episode cycles"), "  "))
	fmt.Fprintf(w, "\n  fast-forward chains: %d (%d episodes, %d actions)\n",
		r.Chains, r.ChainEpisodes, r.ChainActions)
	fmt.Fprintf(w, "%s", indent(r.ChainActionsHist.Render("actions per chain"), "  "))
	fmt.Fprintf(w, "%s", indent(r.ChainEpisodesHist.Render("episodes per chain"), "  "))
	if len(r.Timeline) > 0 {
		fmt.Fprintf(w, "\n  timeline:\n")
		for _, t := range r.Timeline {
			switch t.Type {
			case "quarantine":
				fmt.Fprintf(w, "    %12d  quarantine  %d actions  (%s)\n", t.Cycle, t.Actions, t.Detail)
			case "guard":
				fmt.Fprintf(w, "    %12d  guard       %s at %d bytes\n", t.Cycle, t.Detail, t.Bytes)
			default:
				fmt.Fprintf(w, "    %12d  %-10s  %s: %d actions, %d bytes\n", t.Cycle, t.Type, t.Detail, t.Actions, t.Bytes)
			}
		}
	}
}
