package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// traceRun is one short traced run of workload at a small scale.
func traceRun(t *testing.T, workload string, seed int64) map[string]metric {
	t.Helper()
	opt := options{workload: workload, seed: seed, seconds: 0.1, trace: true, workdir: t.TempDir(), scale: 0.1}
	m, tally, err := run(opt)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if tally.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, tally.failed, tally.attempted, tally.errs)
	}
	return m
}

// isTime reports whether a per-layer metric is a host time, which may vary
// between runs; every other per-layer metric is a count or a ratio of
// counts and must repeat exactly.
func isTime(name string, m metric) bool {
	return m.Unit == "ms" || name == "trace.overhead_ratio"
}

// TestDeclared checks that the metrics the benchmark prints are the ones
// BENCHMARK.json declares, with the same units.
func TestDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key      string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.key, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json declares %s (%s), the benchmark prints %s (%s)", c.key, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}

func TestSelf(t *testing.T) {
	runs := map[string]map[string]metric{}
	for _, w := range []string{"go-cold", "go-warm", "go-slow", "serve-mix"} {
		runs[w] = traceRun(t, w, 7)
	}

	t.Run("counts repeat with the same seed", func(t *testing.T) {
		for w, first := range runs {
			again := traceRun(t, w, 7)
			for name, m := range first {
				if !isTime(name, m) && again[name] != m {
					t.Errorf("%s: %s = %v, then %v", w, name, m.Value, again[name].Value)
				}
			}
		}
	})

	zero := func(t *testing.T, w string, prefixes ...string) {
		t.Helper()
		for name, m := range runs[w] {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) && m.Value != 0 {
					t.Errorf("%s: %s = %v, want 0", w, name, m.Value)
				}
			}
		}
	}
	nonzero := func(t *testing.T, w string, names ...string) {
		t.Helper()
		for _, name := range names {
			if runs[w][name].Value == 0 {
				t.Errorf("%s: %s = 0, want work", w, name)
			}
		}
	}

	t.Run("go-warm simulates nothing in detail", func(t *testing.T) {
		for _, name := range []string{"memo.detailed_insts", "memo.episodes_recorded", "uarch.cycles", "memo.record_ms"} {
			if v := runs["go-warm"][name].Value; v != 0 {
				t.Errorf("go-warm: %s = %v, want 0", name, v)
			}
		}
		nonzero(t, "go-warm", "snapshot.bytes", "snapshot.load_ms", "memo.import_ms", "memo.episodes_replayed")
	})
	t.Run("go-slow does no memo or snapshot work", func(t *testing.T) {
		zero(t, "go-slow", "memo.", "snapshot.")
		nonzero(t, "go-slow", "uarch.cycles", "uarch.self_ms", "direct.calls", "cachesim.load_requests")
	})
	t.Run("go-cold does no snapshot work", func(t *testing.T) {
		zero(t, "go-cold", "snapshot.", "memo.import_ms")
		nonzero(t, "go-cold", "memo.detailed_insts", "memo.episodes_recorded", "memo.episodes_replayed", "uarch.self_ms")
	})
	t.Run("serve-mix exercises the server only", func(t *testing.T) {
		zero(t, "serve-mix", "memo.", "snapshot.", "direct.", "cachesim.", "uarch.")
		nonzero(t, "serve-mix", "server.journal_appends", "server.shared_warm_ratio", "server.handler_ms_p50")
	})
}
