package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// maxReplay bounds the requests of one traced replay.
const maxReplay = 2000

// The traced run splits --seconds between its four phases. A workload
// without an open-loop rate gives that share to the closed loop.
const (
	replayShare   = 0.3
	baselineShare = 0.1
	closedShare   = 0.4
	openShare     = 0.2
)

// runTraced is the --trace 1 invocation. It sets the system up once
// and then, in this order so that the in-process copies start from the
// same state as the real processes and move through the same publishes:
//
//  1. traced replay: one client sends the workload's request sequence
//     to the real system and, after each answer, replays the request
//     level by level on the probe, recording a span per call;
//  2. baseline: the same client goes on through the same sequence with
//     tracing off, so that the replay's client latencies have something
//     of their own kind to be compared with (trace overhead);
//  3. closed loop: the untraced run's phase, between two scrapes of
//     /v1/stats, /metrics and /proc, for counters and tails;
//  4. open loop at the workload's fixed rate, as a diagnostic.
//
// It reports every per-layer metric and writes the spans to
// <out-dir>/trace-<workload>.json.
func runTraced(cfg config, dir string) (*result, error) {
	s, err := setup(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	wl := workloadDefs[cfg.workload]
	p, err := newProbe(s.snapshot, wl, dir)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := p.warm(cfg.workload, cfg.seed, s.v); err != nil {
		return nil, err
	}

	total := time.Duration(cfg.seconds) * time.Second
	replaySpan := time.Duration(replayShare * float64(total))
	baselineSpan := time.Duration(baselineShare * float64(total))
	closedSpan := time.Duration(closedShare * float64(total))
	openSpan := time.Duration(openShare * float64(total))
	if wl.OpenRate == 0 {
		closedSpan += openSpan
	}

	all := &tally{}
	rt, bt := &tally{}, &tally{}
	g := newGenerator(cfg.workload, cfg.seed, laneReplay(cfg.clients), cfg.clients, s.v)
	one := newClient()
	defer one.close()
	if err := s.replay(p, g, one, replaySpan, rt); err != nil {
		return nil, err
	}
	if err := s.replay(nil, g, one, baselineSpan, bt); err != nil {
		return nil, err
	}
	all.merge(rt)
	all.merge(bt)

	t, c, err := s.measure(cfg, closedSpan)
	if err != nil {
		return nil, err
	}
	all.merge(t)

	ot := &tally{}
	if wl.OpenRate > 0 {
		g := newGenerator(cfg.workload, cfg.seed, laneOpen(cfg.clients), cfg.clients, s.v)
		ot = s.e.runOpen(g, wl.OpenRate, openSpan)
		if err := s.d.checkAlive(); err != nil {
			return nil, err
		}
		all.merge(ot)
	}

	r := newResult(cfg, all)
	r.Notes = append(r.Notes, mechanism(cfg.workload, c, t)...)
	if err := s.oracle(cfg, all, r); err != nil {
		return nil, err
	}
	m := r.Metrics
	if err := p.static(s.snapshot, dir, m); err != nil {
		return nil, err
	}
	if err := s.scrapeCost(m); err != nil {
		return nil, err
	}
	layerMetrics(m, p, s, wl, c, t, rt, bt, ot, closedSpan.Seconds())
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metric{0, d.Unit}
		}
	}
	path, err := p.tr.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "afqbench: %d spans of %s written to %s\n", len(p.tr.spans), cfg.workload, path)
	r.Correct = r.Failed == 0 && len(r.Notes) == 0
	return r, nil
}

// replay sends g's cycles over c, one request at a time, for span or
// maxReplay requests. With a probe it is phase 1 of the traced run: every
// answer is followed by the request's replay on the probe's levels. With
// none it is phase 2, the baseline: the same client and sequence, nothing
// between the requests.
func (s *staged) replay(p *probe, g *generator, c *client, span time.Duration, t *tally) error {
	start := time.Now()
	n := 0
	for time.Since(start) < span && n < maxReplay {
		var ss *sessionState
		if s.e.wl == wlSessionFeedback {
			ss = &sessionState{}
		}
	cycle:
		for _, st := range g.next() {
			n++
			t0 := time.Now()
			a := s.e.issue(c, st, ss, t, start, true)
			if a == nil || a.Status != http.StatusOK {
				break cycle
			}
			if p == nil {
				continue
			}
			class := ""
			if a.Query != nil {
				class = a.Query.Cache
			}
			root := p.tr.add(n, 0, "client.request", class, t0, a.Dur, map[string]any{"kind": st.Kind.String(), "bytes": a.Bytes})
			parent := root
			if s.d.router != nil {
				// The same request, straight to the replica that
				// answered it: the router's share is the difference.
				// A batch is answered by several replicas and names
				// none; its twin goes to the first.
				direct, replica := st, a.Replica
				if st.Kind == opBatch {
					direct.Batch, replica = st.Alt, s.d.servers[0].url()
				}
				t0 = time.Now()
				status, _, body, dur, err := c.do(replica, concrete(direct, ss, 0))
				t.attempted++
				if err != nil || status != http.StatusOK {
					t.fail(st.Kind, st.Q, fmt.Errorf("direct to %s: status %d, %v: %s", replica, status, err, truncate(body, 200)))
					break cycle
				}
				parent = p.tr.add(n, root, "router.forward", class, t0, dur, map[string]any{"kind": st.Kind.String(), "replica": replica})
			}
			if err := p.replay(n, parent, st, ss); err != nil {
				return err
			}
		}
	}
	return s.d.checkAlive()
}

// scrapeCost times GET /metrics on the first server.
func (s *staged) scrapeCost(m map[string]metric) error {
	var durs []float64
	size := 0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		body, err := httpGetBody(context.Background(), s.d.servers[0].url()+"/metrics")
		if err != nil {
			return err
		}
		durs = append(durs, time.Since(t0).Seconds())
		size = len(body)
	}
	setMetric(m, perLayer, "obs.scrape_ms", median(durs)*1e3)
	setMetric(m, perLayer, "obs.scrape_bytes", float64(size))
	return nil
}

// durations extracts the latencies of a sample series, ascending.
func durations(samples []sample) []float64 {
	d := make([]float64, len(samples))
	for i, s := range samples {
		d[i] = s.dur
	}
	return sortedCopy(d)
}

// pairDiffUS is the median over requests of kind of (span a − span b)
// in µs, for requests that have both.
func (tr *tracer) pairDiffUS(kind, a, b string) float64 {
	type pair struct{ a, b float64 }
	byReq := make(map[int]*pair)
	kinds := make(map[int]string)
	for _, s := range tr.spans {
		if s.Name == "client.request" {
			kinds[s.Request], _ = s.Attrs["kind"].(string)
		}
	}
	for _, s := range tr.spans {
		if kinds[s.Request] != kind || (s.Name != a && s.Name != b) {
			continue
		}
		pr := byReq[s.Request]
		if pr == nil {
			pr = &pair{-1, -1}
			byReq[s.Request] = pr
		}
		if s.Name == a {
			pr.a = s.DurUS
		} else {
			pr.b = s.DurUS
		}
	}
	var d []float64
	for _, pr := range byReq {
		if pr.a >= 0 && pr.b >= 0 {
			d = append(d, pr.a-pr.b)
		}
	}
	return medianOrZero(d)
}

// layerMetrics fills m from the spans, the counters of the closed-loop
// phase (c, t), the tallies of the replay (rt) and of its untraced
// baseline (bt), and the open loop's ot.
func layerMetrics(m map[string]metric, p *probe, s *staged, wl workloadDef, c counters, t, rt, bt, ot *tally, closedSecs float64) {
	tr := p.tr
	set := func(name string, v float64) { setMetric(m, perLayer, name, v) }
	arcs, nodes := float64(p.ds.Graph.NumArcs()), float64(p.ds.Graph.NumNodes())

	set("ir.parse_us", tr.medianUS("ir.parse", "*"))
	set("ir.baseset_us", tr.medianUS("ir.baseset", "*"))
	set("ir.baseset_size", tr.medianAttr("ir.baseset", "*", "size"))

	set("rank.solve_ms", ratio(c.kernelSeconds, c.solves)*1e3)
	set("rank.sweeps_per_solve", ratio(c.iterations, c.solves))
	set("rank.arcs_per_s", ratio(c.iterations*arcs, c.kernelSeconds))
	set("rank.computed_gb_s", ratio(c.iterations*bytesPerSweep(arcs, nodes), c.kernelSeconds)/1e9)
	set("rank.busy_share", ratio(c.kernelSeconds, c.wall))
	var perColumn []float64
	for _, sp := range tr.match("rank.block", "*") {
		if cols, ok := sp.Attrs["columns"].(int); ok && cols > 0 {
			perColumn = append(perColumn, sp.DurUS/1e3/float64(cols))
		}
	}
	if len(perColumn) > 0 {
		set("rank.block8_ms_per_column", median(perColumn))
	}
	set("rank.solves_per_batch", ratio(c.solves, float64(len(t.ops[opBatch]))))
	var warm []float64
	for _, sp := range tr.match("rank.warm", "*") {
		w, _ := sp.Attrs["warm"].(int)
		cold, _ := sp.Attrs["cold"].(int)
		if cold > 0 {
			warm = append(warm, float64(w)/float64(cold))
		}
	}
	if len(warm) > 0 {
		set("rank.warm_sweeps_ratio", median(warm))
	}
	set("rank.warm_solve_share", ratio(c.warmSolves, c.solves))
	set("rank.hub_over_authority", ratio(tr.medianUS("rank.iterate", "hub"), tr.medianUS("rank.iterate", "authority")))

	set("core.rank_self_us", tr.medianSelfUS("core.rank", "*"))
	set("core.topk_us", tr.medianUS("core.topk", "*"))
	set("core.explain_ms", tr.medianUS("core.explain", "explain")/1e3)
	set("core.explain_nodes", tr.medianAttr("core.explain", "explain", "nodes"))
	set("core.explain_arcs", tr.medianAttr("core.explain", "explain", "arcs"))
	set("core.audit_ms", tr.medianUS("core.audit", "*")/1e3)
	set("core.reformulate_ms", tr.medianUS("core.reformulate", "*")/1e3)
	set("core.publish_us", tr.medianUS("core.publish", "*"))

	set("cache.result_hit_us", tr.medianUS("cache.query", "result"))
	set("cache.term_hit_us", tr.medianUS("cache.query", "term"))
	set("cache.miss_overhead_us", tr.medianSelfUS("cache.query", "computed"))
	set("cache.result_hit_ratio", ratio(c.resultHits, c.resultHits+c.resultMisses))
	set("cache.vector_hit_ratio", ratio(c.vectorHits, c.vectorHits+c.vectorMisses))
	set("cache.vector_evictions", c.vectorEvictions)
	set("cache.computes", c.computes)
	set("cache.singleflight_dedup", c.dedup)
	set("cache.bytes_resident", c.bytesResident)
	set("cache.warm_starts", c.warmStarts)
	set("cache.prewarmed", c.prewarmed)

	set("profile.combine_us", tr.medianUS("profile.query", "combined"))
	set("profile.hit_us", tr.medianUS("profile.query", "hit"))
	set("profile.basis_build_ms", p.basisBuild.Seconds()*1e3)
	set("profile.answer_hit_ratio", ratio(c.answerHits, c.answerHits+c.answerMisses))

	set("server.handler_hit_us", tr.medianUS("server.handler", "result"))
	set("server.handler_cold_ms", tr.medianUS("server.handler", "computed")/1e3)
	set("server.explain_handler_ms", tr.medianUS("server.handler", "explain")/1e3)
	set("server.batch16_handler_ms", tr.medianUS("server.handler", "batch")/1e3)
	set("server.self_hit_us", tr.medianSelfUS("server.handler", "result"))
	set("server.encode_us", tr.medianUS("server.encode", "query"))
	set("server.resp_bytes", tr.medianAttr("server.encode", "query", "bytes"))
	set("server.explain_body_mb", tr.medianAttr("server.encode", "explain", "bytes")/1e6)
	set("server.explain_self_ms", tr.medianSelfUS("server.handler", "explain")/1e3)
	reached := "client.request"
	if s.d.router != nil {
		reached = "router.forward"
	}
	set("server.wire_us", tr.pairDiffUS("query", reached, "server.handler"))
	set("server.cpu_ms_per_op", ratio(c.serverCPU, float64(t.attempted))*1e3)
	set("server.shed_total", c.shed)
	set("server.timeout_total", c.timeouts)

	if s.d.router != nil {
		set("router.hop_us", tr.pairDiffUS("query", "client.request", "router.forward"))
		set("router.batch_hop_ms", tr.pairDiffUS("batch", "client.request", "router.forward")/1e3)
		set("router.batch_groups_per_req", ratio(c.batchGroups, c.batchRequests))
		set("router.cpu_ms_per_op", ratio(c.routerCPU, float64(t.attempted))*1e3)
		total, most := 0, 0
		for _, n := range t.replicas {
			total += n
			most = max(most, n)
		}
		set("router.replica_share_max", ratio(float64(most), float64(total)))
		set("router.failovers", c.failovers)
		set("router.stale_skips", c.staleSkips)
	}

	set("loadgen.ops_per_s", ratio(float64(t.attempted), c.wall))
	qd := durations(t.ops[opQuery])
	q := estimateP50(t.ops[opQuery], closedSecs, c.sliceSteal)
	set("loadgen.query_p50_ms", q.P50*1e3)
	for _, tail := range []struct {
		name string
		p    float64
	}{{"loadgen.query_p90_ms", 90}, {"loadgen.query_p99_ms", 99}, {"loadgen.query_p999_ms", 99.9}} {
		// A percentile with fewer than ten samples beyond it is
		// not reported: it reads 0.
		if supported(len(qd), tail.p) {
			set(tail.name, percentile(qd, tail.p)*1e3)
		}
	}
	if d := durations(t.ops[opRequery]); len(d) > 0 {
		set("loadgen.requery_p50_ms", percentile(d, 50)*1e3)
	}
	set("loadgen.error_ratio", ratio(float64(t.failed+rt.failed+bt.failed+ot.failed), float64(t.attempted+rt.attempted+bt.attempted+ot.attempted)))
	if wl.OpenRate > 0 {
		var od []float64
		for k := range ot.ops {
			od = append(od, durations(ot.ops[k])...)
		}
		od = sortedCopy(od)
		set("loadgen.open_rate", wl.OpenRate)
		if len(od) > 0 {
			set("loadgen.open_p50_ms", percentile(od, 50)*1e3)
		}
		if supported(len(od), 99) {
			set("loadgen.open_p99_ms", percentile(od, 99)*1e3)
		}
		if lag := sortedCopy(ot.lag); supported(len(lag), 99) {
			set("loadgen.sched_lag_p99_ms", percentile(lag, 99)*1e3)
		}
	}
	set("loadgen.slice_iqr_ratio", guardIQR(wl.Name, t.ops, closedSecs, c.sliceSteal))
	set("loadgen.steal_share", c.steal)
	set("loadgen.quiet_slices", float64(quietSlices(c.sliceSteal)))
	// Both series come from one client on one connection sending the
	// same sequence, the first with the probe's work between its
	// requests: their ratio is what tracing costs the traced. Taken per
	// kind of request, and the median over the kinds both hold.
	var overhead []float64
	for k := opKind(0); k < numKinds; k++ {
		traced, base := durations(rt.ops[k]), durations(bt.ops[k])
		if len(traced) > 0 && len(base) > 0 {
			overhead = append(overhead, ratio(percentile(traced, 50), percentile(base, 50)))
		}
	}
	set("loadgen.trace_overhead_ratio", medianOrZero(overhead))
	// Only where the levels' caches stay in step does a handler span
	// have the same children as the real request: hits on hot_zipf,
	// misses on cold_uniform.
	if class := map[string]string{wlHotZipf: "result", wlColdUniform: "computed"}[wl.Name]; class != "" {
		leaf, over := tr.accounting(class)
		set("loadgen.leaf_sum_ratio", leaf)
		set("loadgen.overrun_ratio", over)
	}
}
