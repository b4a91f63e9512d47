package main

import "fmt"

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0), on every
// workload.
var endToEnd = []metricDef{
	{"kips", "kinst/s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1), on every workload.
// A layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"direct.calls", "count"},
	{"direct.insts", "count"},
	{"direct.wrong_path_insts", "count"},
	{"direct.rollbacks", "count"},
	{"direct.busy_ms", "ms"},

	{"cachesim.load_requests", "count"},
	{"cachesim.load_polls", "count"},
	{"cachesim.polls_per_load", "ratio"},
	{"cachesim.stores", "count"},
	{"cachesim.busy_ms", "ms"},

	{"uarch.cycles", "count"},
	{"uarch.self_ms", "ms"},

	{"memo.self_ms", "ms"},
	{"memo.record_ms", "ms"},
	{"memo.replay_ms", "ms"},
	{"memo.resume_ms", "ms"},
	{"memo.detailed_insts", "count"},
	{"memo.episodes_recorded", "count"},
	{"memo.episodes_replayed", "count"},
	{"memo.actions_replayed", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.peak_bytes", "bytes"},
	{"memo.import_ms", "ms"},

	{"snapshot.load_ms", "ms"},
	{"snapshot.bytes", "bytes"},

	{"runtime.gc_ms", "ms"},

	{"server.handler_ms_p50", "ms"},
	{"http.overhead_ms_p50", "ms"},
	{"server.journal_appends", "count"},
	{"server.shared_warm_ratio", "ratio"},
	{"server.shed", "count"},
	{"server.retries", "count"},

	{"trace.overhead_ratio", "ratio"},
	{"fail_ratio", "ratio"},
}

// emit turns measured values into the report's metric map. With traced
// set it reports perLayer, filling layers the workload bypasses with 0;
// otherwise it reports endToEnd, every one of which must be measured.
func emit(values map[string]float64, traced bool) (map[string]metric, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// ratio is part/whole, or 0 when whole is 0.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
