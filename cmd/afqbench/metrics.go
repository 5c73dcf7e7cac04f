package main

import (
	"encoding/json"
	"os"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json repeats them, and a test
// holds the two together.
type metricDef struct {
	Name string
	Unit string
	// Better says which way is better, "lower" or "higher".
	Better string
}

// regressBound is the share of the baseline's median by which an
// end-to-end metric may get worse before -compare calls it a regression.
// A pair whose own runs spread wider than this is unresolved, not ok.
const regressBound = 0.10

// driverBound is the bound BENCHMARK.json declares for every end-to-end
// metric. The driver refuses the benchmark itself when ten runs of one
// commit spread wider than the declared bound, so it is sized from the
// spreads measured on a shared host (bench/README.md: up to 0.22 when the
// hypervisor takes a quarter of the CPU away for some of the ten), not
// from what a regression should cost, and 0.25 is the most it may be.
const driverBound = 0.25

// setMetric records v under name with the unit defs declares for it. A
// name defs does not declare is a bug in the benchmark.
func setMetric(m map[string]metric, defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = metric{v, d.Unit}
			return
		}
	}
	panic("afqbench: undeclared metric " + name)
}

// opMetric names the end-to-end latency metric of an operation.
func opMetric(k opKind) string { return k.String() + "_p50_ms" }

// endToEnd is what a user of the system sees. Every latency is the
// client-observed time of one kind of request in the closed-loop phase
// and belongs to the workloads that issue that kind (workloadDef.Ops);
// setup_s and rss_peak_mb belong to all four. The requery has no metric
// here: half of them hit the result the reformulation left behind in
// 0.4 ms and half wait 1-25 ms behind the prewarmer that the same
// publish started, so their median sits on the edge between the two and
// read 0.47-2.8 ms in ten runs of one commit. It is reported ungated
// (loadgen.requery_p50_ms).
var endToEnd = []metricDef{
	// Corpus generation, snapshot write, process boot to the first
	// healthy /v1/healthz and the workload's warm-up; median of the
	// run's set-ups. Compiling is not part of it.
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: opMetric(opQuery), Unit: "ms", Better: "lower"},
	{Name: opMetric(opBatch), Unit: "ms", Better: "lower"},
	{Name: opMetric(opProfileQuery), Unit: "ms", Better: "lower"},
	{Name: opMetric(opExplain), Unit: "ms", Better: "lower"},
	{Name: opMetric(opAudit), Unit: "ms", Better: "lower"},
	{Name: opMetric(opReformulate), Unit: "ms", Better: "lower"},
	// Sum of VmHWM over the system's processes when the phase ends.
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower"},
}

// gatedOps are the operations whose latency is an end-to-end metric.
var gatedOps = []opKind{opQuery, opBatch, opProfileQuery, opExplain, opAudit, opReformulate}

// reports says whether workload wl has the end-to-end metric name: a
// latency only where the workload issues the operation. The driver wants
// every metric from every run, so a run fills the others in (see
// runOnce); result sets and -compare leave them out.
func reports(wl, name string) bool {
	for _, k := range gatedOps {
		if name == opMetric(k) {
			return workloadDefs[wl].issues(k)
		}
	}
	return true
}

// perLayer is what the traced run reports: one layer's work, time or
// waste each. A metric reads 0 on a workload whose requests never reach
// that layer. bench/README.md says how each is measured and which
// end-to-end metric it should move on which workload.
var perLayer = []metricDef{
	{Name: "storage.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.snapshot_load_ms", Unit: "ms", Better: "lower"},

	{Name: "graph.nodes", Unit: "count", Better: "lower"},
	{Name: "graph.arcs", Unit: "count", Better: "lower"},
	{Name: "graph.csr_bytes", Unit: "B", Better: "lower"},

	{Name: "ir.parse_us", Unit: "us", Better: "lower"},
	{Name: "ir.baseset_us", Unit: "us", Better: "lower"},
	{Name: "ir.baseset_size", Unit: "count", Better: "lower"},

	{Name: "rank.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "rank.sweeps_per_solve", Unit: "count", Better: "lower"},
	{Name: "rank.arcs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rank.computed_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "rank.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "rank.block8_ms_per_column", Unit: "ms", Better: "lower"},
	{Name: "rank.solves_per_batch", Unit: "count", Better: "lower"},
	{Name: "rank.warm_sweeps_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rank.warm_solve_share", Unit: "ratio", Better: "higher"},
	{Name: "rank.hub_over_authority", Unit: "ratio", Better: "lower"},

	{Name: "core.rank_self_us", Unit: "us", Better: "lower"},
	{Name: "core.topk_us", Unit: "us", Better: "lower"},
	{Name: "core.explain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.explain_nodes", Unit: "count", Better: "lower"},
	{Name: "core.explain_arcs", Unit: "count", Better: "lower"},
	{Name: "core.audit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reformulate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.publish_us", Unit: "us", Better: "lower"},

	{Name: "cache.result_hit_us", Unit: "us", Better: "lower"},
	{Name: "cache.term_hit_us", Unit: "us", Better: "lower"},
	{Name: "cache.miss_overhead_us", Unit: "us", Better: "lower"},
	{Name: "cache.result_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.vector_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.vector_evictions", Unit: "count", Better: "lower"},
	{Name: "cache.computes", Unit: "count", Better: "lower"},
	{Name: "cache.singleflight_dedup", Unit: "count", Better: "higher"},
	{Name: "cache.bytes_resident", Unit: "B", Better: "lower"},
	{Name: "cache.warm_starts", Unit: "count", Better: "higher"},
	{Name: "cache.prewarmed", Unit: "count", Better: "higher"},

	{Name: "profile.combine_us", Unit: "us", Better: "lower"},
	{Name: "profile.hit_us", Unit: "us", Better: "lower"},
	{Name: "profile.basis_build_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.answer_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "server.explain_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.batch16_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.explain_body_mb", Unit: "MB", Better: "lower"},
	{Name: "server.explain_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wire_us", Unit: "us", Better: "lower"},
	{Name: "server.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "server.timeout_total", Unit: "count", Better: "lower"},

	{Name: "router.hop_us", Unit: "us", Better: "lower"},
	{Name: "router.batch_hop_ms", Unit: "ms", Better: "lower"},
	{Name: "router.batch_groups_per_req", Unit: "count", Better: "lower"},
	{Name: "router.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "router.replica_share_max", Unit: "ratio", Better: "lower"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},
	{Name: "router.stale_skips", Unit: "count", Better: "lower"},

	{Name: "obs.middleware_us", Unit: "us", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.scrape_bytes", Unit: "B", Better: "lower"},

	{Name: "loadgen.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.query_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.query_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.requery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.error_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.open_rate", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.slice_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.quiet_slices", Unit: "count", Better: "higher"},
	{Name: "loadgen.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.leaf_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.overrun_ratio", Unit: "ratio", Better: "lower"},
}

// printDeclaration writes BENCHMARK.json from the tables above, so the
// file the driver reads cannot drift from what the runs report.
func printDeclaration(runSeconds int) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"cmd/afqbench", "bench"},
		RunSeconds: runSeconds,
	}
	for _, n := range workloadNames {
		decl.Workloads = append(decl.Workloads, workload{n, workloadDefs[n].Why})
	}
	for _, d := range endToEnd {
		decl.EndToEnd = append(decl.EndToEnd, bounded{d.Name, d.Unit, d.Better, driverBound})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}
