package main

// metricDef is one reported metric. The lists below are the single source
// of the benchmark's metric names and units; TestRegistryMatchesBenchmarkJSON
// keeps BENCHMARK.json in step with them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports all of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.2},
	{"p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"atoms_per_s", "atoms/s", "higher", 0.25},
	{"epol_rel_err", "1", "lower", 0.1},
}

// perLayer are the metrics of a traced run (--trace 1). Time metrics are
// medians of span self times over every call the run made; counts are means
// per call; a layer the workload never calls reports 0.
var perLayer = []metricDef{
	{"serve.decode_ms", "ms", "lower", 0},
	{"serve.encode_ms", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.queue_ms", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "1", "higher", 0},
	{"serve.coalesced", "count", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.sweep_batch_poses", "count", "higher", 0},
	{"molecule.hash_ms", "ms", "lower", 0},
	{"fabric.hop_ms", "ms", "lower", 0},
	{"fabric.hedges", "count", "lower", 0},
	{"fabric.hedge_wins", "1", "higher", 0},
	{"fabric.retries", "count", "lower", 0},
	{"fabric.spills", "count", "lower", 0},
	{"fabric.hot_spreads", "count", "lower", 0},
	{"surface.sample_ms", "ms", "lower", 0},
	{"surface.qpoints_per_atom", "1/atom", "lower", 0},
	{"surface.compose_ms", "ms", "lower", 0},
	{"octree.build_ta_ms", "ms", "lower", 0},
	{"octree.build_tq_ms", "ms", "lower", 0},
	{"core.born_setup_ms", "ms", "lower", 0},
	{"core.born_list_ms", "ms", "lower", 0},
	{"core.born_eval_ms", "ms", "lower", 0},
	{"core.push_ms", "ms", "lower", 0},
	{"core.born_near_pairs", "count", "lower", 0},
	{"core.born_far_evals", "count", "lower", 0},
	{"core.epol_setup_ms", "ms", "lower", 0},
	{"core.epol_list_ms", "ms", "lower", 0},
	{"core.epol_eval_ms", "ms", "lower", 0},
	{"core.epol_near_pairs", "count", "lower", 0},
	{"core.epol_far_evals", "count", "lower", 0},
	{"engine.new_problem_ms", "ms", "lower", 0},
	{"engine.prepare_ms", "ms", "lower", 0},
	{"engine.eval_epol_ms", "ms", "lower", 0},
	{"engine.session_create_ms", "ms", "lower", 0},
	{"engine.session_step_ms", "ms", "lower", 0},
	{"engine.dirty_born_rows", "count", "lower", 0},
	{"engine.dirty_epol_drivers", "count", "lower", 0},
	{"engine.resweeps", "count", "lower", 0},
	{"sched.executed", "count", "lower", 0},
	{"sched.steals", "count", "lower", 0},
	{"sched.failed_steals", "count", "lower", 0},
	{"sched.steal_success", "1", "higher", 0},
	{"sched.parks", "count", "lower", 0},
	{"stream.create_ms", "ms", "lower", 0},
	{"client.lateness_ms", "ms", "lower", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
}

// spanMetrics maps a per-layer time metric to the span whose self times it
// summarizes.
var spanMetrics = map[string]string{
	"serve.decode_ms":          "serve.decode",
	"serve.encode_ms":          "serve.encode",
	"molecule.hash_ms":         "molecule.hash",
	"surface.sample_ms":        "surface.sample",
	"surface.compose_ms":       "surface.compose",
	"octree.build_ta_ms":       "octree.build_ta",
	"octree.build_tq_ms":       "octree.build_tq",
	"core.born_setup_ms":       "core.born_setup",
	"core.born_list_ms":        "core.born_list",
	"core.born_eval_ms":        "core.born_eval",
	"core.push_ms":             "core.push",
	"core.epol_setup_ms":       "core.epol_setup",
	"core.epol_list_ms":        "core.epol_list",
	"core.epol_eval_ms":        "core.epol_eval",
	"engine.new_problem_ms":    "engine.new_problem",
	"engine.prepare_ms":        "engine.prepare",
	"engine.eval_epol_ms":      "engine.eval_epol",
	"engine.session_create_ms": "engine.session_create",
	"engine.session_step_ms":   "engine.session_step",
}
