package main

// perLayer lists every per-layer metric a traced run prints, with its
// unit and, for a time, the span whose median duration it is. The unit
// "count" (and "count/count" for ratios of counts) marks the metrics
// that are exact counts: they repeat exactly across runs of one seed. A
// count of a layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit, span string }{
	{"lahar.put_ms", "ms", "lahar.put"},
	{"lahar.append_ms", "ms", "lahar.append"},
	{"lahar.conf_ms", "ms", "lahar.conf"},
	{"lahar.slide_ms", "ms", "lahar.slide"},
	{"lahar.window_us", "us", ""},
	{"lahar.hit_ratio", "count/count", ""},
	{"lahar.misses_per_op", "count", ""},
	{"lahar.extensions_per_op", "count", ""},
	{"lahar.invalidations_per_op", "count", ""},
	{"lahar.shed_ratio", "count/count", ""},
	{"lahar.replay_ms_per_op", "ms", ""},
	{"core.prepare_ms", "ms", "core.prepare"},
	{"core.bind_ms", "ms", "core.bind"},
	{"core.carry_ms", "ms", "core.carry"},
	{"core.ttfa_ms", "ms", "core.ttfa"},
	{"core.rest_ms", "ms", "core.rest"},
	{"core.hit_us", "us", "core.hit"},
	{"core.conf_det_ms", "ms", "core.conf_det"},
	{"core.conf_sproj_ms", "ms", "core.conf_sproj"},
	{"core.replay_ms_per_op", "ms", ""},
	{"ranked.next_ms", "ms", "ranked.next"},
	{"ranked.delay_exp", "1", ""},
	{"ranked.reused_per_op", "count", ""},
	{"ranked.reseeded_per_op", "count", ""},
	{"ranked.handles_skipped_per_op", "count", ""},
	{"ranked.replay_ms_per_op", "ms", ""},
	{"kernel.resolve_ms", "ms", "kernel.resolve"},
	{"kernel.checkpoint_ms", "ms", "kernel.checkpoint"},
	{"kernel.bounds_ms", "ms", "kernel.bounds"},
	{"kernel.prune_ratio", "count/count", ""},
	{"kernel.replay_ms_per_op", "ms", ""},
	{"markov.validate_ms", "ms", "markov.validate"},
	{"markov.extend_ms", "ms", "markov.extend"},
	{"markov.replay_ms_per_op", "ms", ""},
	{"gc.alloc_mb_per_op", "MB", ""},
	{"gc.mallocs_per_op", "allocs", ""},
	{"gc.cycles_per_op", "cycles", ""},
	{"gc.pause_ms_per_op", "ms", ""},
	{"trace.overhead", "1", ""},
}

// layerMetrics collects a traced run's per-layer metrics. Every name in
// perLayer starts at 0; set overrides one, taking the unit from perLayer.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	l, ok := m[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m[name] = metric{v, l.Unit}
}

// fromSpans sets every span-timed metric to the median duration of its
// spans: the workload's own, or the probe's where the workload has none.
func (m layerMetrics) fromSpans(tr *tracer, probe *layerProbe) {
	for _, l := range perLayer {
		if l.span == "" {
			continue
		}
		d := tr.durations(l.span)
		if len(d) == 0 {
			d = tr.durations("probe." + l.span)
		}
		scale := 1.0
		if l.unit == "us" {
			scale = 1000
		}
		if len(d) > 0 {
			m.set(l.name, median(d)*scale)
		}
	}
	if len(probe.windowUS) > 0 {
		m.set("lahar.window_us", median(probe.windowUS))
	}
}
