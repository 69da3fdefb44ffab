package main

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. Each names the end-to-end metric and workload it should move.
var layerUnits = map[string]string{
	// server (serve-whatif): the median of client latency minus the
	// daemon's own duration_ms over verify requests (the one class whose
	// duration_ms covers all the handler's solver work), and the median
	// response size over all requests, move latency_p50_ms; per-class
	// medians move latency_p50_ms and latency_tail_ms.
	"server.overhead_ms":                   "ms",
	"server.resp_kb":                       "KiB",
	"server.latency_p50_ms.verify":         "ms",
	"server.latency_p50_ms.whatif_discard": "ms",
	"server.latency_p50_ms.whatif_commit":  "ms",
	"server.latency_p50_ms.analyze":        "ms",
	// spp.DeltaVerifier (serve-whatif): load moves setup_s; clone, edit
	// and verify move latency_*.
	"spp.delta.load_s":    "s",
	"spp.delta.clone_ms":  "ms",
	"spp.delta.edit_ms":   "ms",
	"spp.delta.verify_ms": "ms",
	// smt.DeltaContext (serve-whatif): how verifies were discharged; the
	// full share is wasted work and moves ops_per_s. affected is the
	// median re-probed region of a delta solve.
	"smt.delta.mode_share.cached": "frac",
	"smt.delta.mode_share.delta":  "frac",
	"smt.delta.mode_share.full":   "frac",
	"smt.delta.affected":          "count",
	// campaign-mixed: mean time per scenario in each layer, and per kind,
	// over the census scenarios, move ops_per_s.
	"scenario.generate_ms":                  "ms",
	"spp.convert_ms":                        "ms",
	"analysis.check_ms":                     "ms",
	"engine.run_ms":                         "ms",
	"engine.run_allocs":                     "count",
	"scenario.kind_ms.gadget-splice":        "ms",
	"scenario.kind_ms.gao-rexford":          "ms",
	"scenario.kind_ms.ibgp":                 "ms",
	"scenario.kind_ms.partial-spec":         "ms",
	"scenario.kind_ms.churn-flap":           "ms",
	"scenario.kind_ms.churn-storm":          "ms",
	"scenario.kind_ms.churn-dispute":        "ms",
	"scenario.kind_ms.gao-rexford-internet": "ms",
	"scenario.kind_ms.lexical-product":      "ms",
	// campaign-mixed exact counts over the census scenarios: a pure speed
	// change must not move them.
	"engine.messages":      "count",
	"engine.bytes":         "B",
	"engine.route_changes": "count",
	"engine.sim_time_s":    "s",
	// internet-analyze: scale-path time per verdict in the census moves
	// latency_p50_ms (safe) and latency_tail_ms (unsafe); the SCC plan and
	// solver effort are exact counts summed over the eight instances.
	"spp.scale.analyze_ms.safe":   "ms",
	"spp.scale.analyze_ms.unsafe": "ms",
	"smt.scc.tarjan_ms":           "ms",
	"smt.scc.components":          "count",
	"smt.scc.levels":              "count",
	"smt.scc.max_level_width":     "count",
	"smt.probes":                  "count",
	"smt.relaxations":             "count",
	"spp.scale.constraints":       "count",
	// internet-analyze, unsafe path: move latency_tail_ms.
	"spp.scale.sharded_constraints_ms": "ms",
	"analysis.check_prepared_ms":       "ms",
	"analysis.core_size":               "count",
	// internet-analyze memory: moves peak_rss_mb.
	"spp.scale.allocs":  "count",
	"spp.scale.heap_mb": "MiB",
	// internet-analyze set-up: moves setup_s.
	"topology.generate_s": "s",
	// Every workload: 1 − traced/untraced ops_per_s of the run's own
	// workload, over alternating slices that make the same calls.
	"trace.overhead_frac": "frac",
}
