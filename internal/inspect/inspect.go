// Package inspect is the offline analysis layer behind cmd/fsinspect: it
// digests p-action cache snapshots (per-config chain shapes, hot chains,
// action-kind breakdowns) and observability event streams (episode and
// chain distributions, quarantine and guard timelines) into reports
// renderable as text or JSON. It only ever reads — snapshots are decoded
// through the fingerprint-free inspection path and never imported into a
// live cache.
package inspect

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"fastsim/internal/memo"
	"fastsim/internal/snapshot"
	"fastsim/internal/stats"
)

// ChainInfo summarizes one configuration's action chain (the subtree of
// nodes recorded under it).
type ChainInfo struct {
	Config   int    `json:"config"`    // index in the snapshot's sorted key order
	KeyBytes int    `json:"key_bytes"` // encoded iQ snapshot size
	Actions  uint64 `json:"actions"`   // nodes in the chain subtree
	Episodes uint64 `json:"episodes"`  // advance nodes (episodes recorded)
	Cycles   uint64 `json:"cycles"`    // simulated cycles covered by those episodes
	Insts    int64  `json:"insts"`     // instructions retired by them
	Links    uint64 `json:"links"`     // links into successor configurations
}

// SnapshotReport is the digest of one p-action snapshot.
type SnapshotReport struct {
	Fingerprint string `json:"fingerprint"`
	Configs     int    `json:"configs"` // loaded_configs: every key in the image
	Actions     int    `json:"actions"` // loaded_actions: every action node
	Shells      int    `json:"shells"`  // configs awaiting re-recording (no chain)
	KeyBytes    int    `json:"key_bytes"`

	// Kinds counts actions by kind name.
	Kinds map[string]uint64 `json:"kinds"`

	// ChainHist is the per-config chain-size distribution (actions per
	// non-shell configuration).
	ChainHist stats.Histogram `json:"chain_hist"`
	// EpisodeHist is the per-config recorded-episode distribution.
	EpisodeHist stats.Histogram `json:"episode_hist"`

	// TopChains lists the largest chains by action count, descending.
	TopChains []ChainInfo `json:"top_chains"`

	// Stats is the cache counter state frozen into the snapshot.
	Stats memo.Stats `json:"stats"`
}

// AnalyzeSnapshot digests a decoded snapshot image. topN bounds TopChains
// (0 selects 10).
func AnalyzeSnapshot(img *snapshot.Image, topN int) *SnapshotReport {
	if topN <= 0 {
		topN = 10
	}
	g := &img.Graph
	r := &SnapshotReport{
		Fingerprint: fmt.Sprintf("%016x", img.Fingerprint),
		Configs:     len(g.Keys),
		Actions:     len(g.Actions),
		Kinds:       make(map[string]uint64),
		Stats:       g.Stats,
	}
	for i := range g.Actions {
		r.Kinds[g.Actions[i].KindString()]++
	}

	chains := make([]ChainInfo, 0, len(g.Keys))
	var stack []int64
	for i, key := range g.Keys {
		r.KeyBytes += len(key)
		first := g.First[i]
		if first < 0 {
			r.Shells++
			continue
		}
		ci := ChainInfo{Config: i, KeyBytes: len(key)}
		// The p-action graph is a tree per configuration (links cross into
		// other configs only via NextCfg), so a plain DFS visits each
		// subtree node exactly once.
		stack = append(stack[:0], first)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ga := &g.Actions[id]
			ci.Actions++
			switch ga.KindString() {
			case "advance":
				ci.Episodes++
				ci.Cycles += uint64(ga.Cycles)
				ci.Insts += int64(ga.Insts)
			case "link":
				ci.Links++
			}
			if ga.Next >= 0 {
				stack = append(stack, ga.Next)
			}
			stack = append(stack, ga.Targets...)
		}
		r.ChainHist.Add(ci.Actions)
		r.EpisodeHist.Add(ci.Episodes)
		chains = append(chains, ci)
	}

	sort.Slice(chains, func(i, j int) bool {
		if chains[i].Actions != chains[j].Actions {
			return chains[i].Actions > chains[j].Actions
		}
		return chains[i].Config < chains[j].Config // deterministic tie-break
	})
	if len(chains) > topN {
		chains = chains[:topN]
	}
	r.TopChains = chains
	return r
}

// Render writes the human-readable form of the report.
func (r *SnapshotReport) Render(w io.Writer) {
	fmt.Fprintf(w, "snapshot: fingerprint %s\n", r.Fingerprint)
	fmt.Fprintf(w, "  configs  %d (%d shells)  key bytes %d\n", r.Configs, r.Shells, r.KeyBytes)
	fmt.Fprintf(w, "  actions  %d\n", r.Actions)
	for _, k := range sortedKeys(r.Kinds) {
		fmt.Fprintf(w, "    %-12s %d\n", k, r.Kinds[k])
	}
	fmt.Fprintf(w, "\n%s", indent(r.ChainHist.Render("actions per config"), "  "))
	fmt.Fprintf(w, "\n%s", indent(r.EpisodeHist.Render("episodes per config"), "  "))
	fmt.Fprintf(w, "\n  top chains (by actions):\n")
	fmt.Fprintf(w, "    %8s %8s %9s %10s %10s %6s\n", "config", "actions", "episodes", "cycles", "insts", "links")
	for _, c := range r.TopChains {
		fmt.Fprintf(w, "    %8d %8d %9d %10d %10d %6d\n",
			c.Config, c.Actions, c.Episodes, c.Cycles, c.Insts, c.Links)
	}
	s := &r.Stats
	fmt.Fprintf(w, "\n  stats: lookups=%d hits=%d episodes(record=%d replay=%d) insts(detailed=%d replay=%d)\n",
		s.Lookups, s.Hits, s.EpisodesRecord, s.EpisodesReplay, s.DetailedInsts, s.ReplayInsts)
	fmt.Fprintf(w, "  stats: bytes=%d peak=%d flushes=%d collections=%d quarantines=%d\n",
		s.Bytes, s.PeakBytes, s.Flushes, s.Collections, s.Quarantines)
}

func sortedKeys(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m { //fastsim:order-independent: keys are sorted before use
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}
