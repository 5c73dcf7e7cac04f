package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/obs"
	"authorityflow/internal/profile"
	"authorityflow/internal/server"
)

// probe holds in-process copies of the system's layers, all built from
// the snapshot the real processes booted from. The traced run replays
// every request against them, one level at a time:
//
//	level A  srv   a whole server (engine, cache, profiles): server.handler
//	level B  c2/m2 a serving cache and profile manager over their own engine:
//	               cache.query, cache.rank, cache.batch, profile.query
//	level C  eng3  an uncached engine: core.rank, ir.baseset, rank.iterate,
//	               core.topk, core.explain, core.audit, core.reformulate,
//	               core.publish, rank.block
//
// Each level has its own cache, so a level's fill never turns the next
// level's miss into a hit, and each level is taken through the same
// warm-up and the same publishes as the real system.
type probe struct {
	ds *datagen.Dataset
	ix *ir.Index

	srv *server.Server
	h   http.Handler

	eng2 *core.Engine
	c2   *cache.CachedEngine
	m2   *profile.Manager

	eng3 *core.Engine

	tr *tracer
	// prev is the score vector of the last reformulation's feedback
	// ranking at level C, the warm start of the requery that follows.
	prev []float64
	// basisBuild is how long level B's topic basis took to build.
	basisBuild time.Duration
	nTermHit   int
}

// prewarmTerms is afqserver's default -prewarm.
const prewarmTerms = 8

func newProbe(snapshot string, wl workloadDef, dir string) (*probe, error) {
	_, ds, ix, _, err := loadEngine(snapshot)
	if err != nil {
		return nil, err
	}
	p := &probe{ds: ds, ix: ix, tr: newTracer()}
	opts := []server.Option{server.WithCache(int64(wl.CacheMB)<<20, prewarmTerms)}
	if wl.Replicas > 1 {
		pdir := filepath.Join(dir, "probe-profiles-a")
		if err := os.Mkdir(pdir, 0o755); err != nil {
			return nil, err
		}
		opts = append(opts, server.WithProfiles(pdir, 0))
	}
	if p.srv, err = server.NewWithIndex(ds, ix, core.Config{}, opts...); err != nil {
		return nil, fmt.Errorf("probe server: %w", err)
	}
	p.h = p.srv.Handler()

	engine := func() (*core.Engine, error) {
		cp, err := core.NewCorpusWithIndex(ds.Graph, ix, core.Config{})
		if err != nil {
			return nil, err
		}
		return core.NewEngineWith(cp, ds.Rates)
	}
	if p.eng2, err = engine(); err != nil {
		return nil, fmt.Errorf("probe engine: %w", err)
	}
	p.c2 = cache.New(p.eng2, cache.Options{MaxBytes: int64(wl.CacheMB) << 20, PrewarmTerms: prewarmTerms})
	if wl.Replicas > 1 {
		pdir := filepath.Join(dir, "probe-profiles-b")
		if err := os.Mkdir(pdir, 0o755); err != nil {
			return nil, err
		}
		p.m2, err = profile.NewManager(p.eng2, profile.Options{
			Dir: pdir,
			BaseRank: func(ctx context.Context, pin *core.Pinned, q *ir.Query) (*core.RankResult, error) {
				return p.c2.RankPinnedCtx(ctx, pin, q)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("probe profile manager: %w", err)
		}
	}
	if p.eng3, err = engine(); err != nil {
		return nil, fmt.Errorf("probe engine: %w", err)
	}
	return p, nil
}

func (p *probe) close() {
	p.srv.Close()
	p.c2.Close()
}

// serve runs one request through level A's handler, without sockets.
func (p *probe) serve(wr wireRequest) (*httptest.ResponseRecorder, time.Time, time.Duration) {
	req := httptest.NewRequest(wr.Method, wr.Path, bytes.NewReader(wr.Body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	p.h.ServeHTTP(rec, req)
	return rec, t0, time.Since(t0)
}

// warm takes levels A and B through the workload's warm-up, as setup
// took the real system.
func (p *probe) warm(wl string, seed int64, v *vocab) error {
	ctx := context.Background()
	if wl == wlFleetMix {
		for i, mix := range profileMixtures(seed, v) {
			body, err := json.Marshal(server.ProfileUpdateRequest{Mixture: mix})
			if err != nil {
				return err
			}
			rec, _, _ := p.serve(wireRequest{Method: http.MethodPut, Path: "/v1/profile/" + profileID(i), Body: body})
			if rec.Code != http.StatusOK {
				return fmt.Errorf("probe: storing profile: status %d: %s", rec.Code, truncate(rec.Body.Bytes(), 200))
			}
			if _, err := p.m2.Put(&profile.Profile{ID: profileID(i), Mixture: mix}); err != nil {
				return fmt.Errorf("probe: storing profile: %w", err)
			}
		}
		t0 := time.Now()
		if _, err := p.m2.BasisFor(ctx, p.eng2.Pin()); err != nil {
			return fmt.Errorf("probe: building basis: %w", err)
		}
		p.basisBuild = time.Since(t0)
		rec, _, _ := p.serve(concrete(step{Kind: opProfileQuery, Q: v.Head[0], K: 10, Profile: profileID(0)}, nil, 0))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe: first profile query: status %d: %s", rec.Code, truncate(rec.Body.Bytes(), 200))
		}
	}
	for _, st := range warmup(wl, seed, v) {
		rec, _, _ := p.serve(concrete(st, nil, 0))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe: warm-up %q: status %d: %s", st.Q, rec.Code, truncate(rec.Body.Bytes(), 200))
		}
		if _, err := p.c2.QueryModePinnedCtx(ctx, p.eng2.Pin(), ir.ParseQuery(st.Q), st.K, core.ModeAuthority); err != nil {
			return fmt.Errorf("probe: warm-up %q: %w", st.Q, err)
		}
	}
	return nil
}

// encodeLike marshals v the way the server's writeJSON does and
// records it as a server.encode span.
func (p *probe) encodeLike(req, parent int, class string, v any) {
	var buf bytes.Buffer
	t0 := time.Now()
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a DTO just decoded from JSON encodes back
	p.tr.add(req, parent, "server.encode", class, t0, time.Since(t0), map[string]any{"bytes": buf.Len()})
}

// replay runs the in-process levels of one request under parent, which
// is the span of the call that reached the real server: client.request,
// or router.forward behind a router. ss is the session state the real
// request was built from.
func (p *probe) replay(req, parent int, st step, ss *sessionState) error {
	ctx := context.Background()
	tr := p.tr
	q := ir.ParseQuery(st.Q)
	mode, err := core.ParseMode(st.Mode)
	if err != nil {
		return err
	}
	bad := func(rec *httptest.ResponseRecorder) error {
		return fmt.Errorf("probe: %s %q: status %d: %s", st.Kind, st.Q, rec.Code, truncate(rec.Body.Bytes(), 200))
	}

	switch st.Kind {
	case opQuery, opRequery:
		rec, t0, d := p.serve(concrete(st, ss, 0))
		if rec.Code != http.StatusOK {
			return bad(rec)
		}
		var qa server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qa); err != nil {
			return err
		}
		hid := tr.add(req, parent, "server.handler", qa.Cache, t0, d, map[string]any{"bytes": rec.Body.Len()})
		tr.timed(req, hid, "ir.parse", "", func() { ir.ParseQuery(st.Q) })

		pin2 := p.eng2.Pin()
		t0 = time.Now()
		ans, err := p.c2.QueryModePinnedCtx(ctx, pin2, q, st.K, mode)
		d = time.Since(t0)
		if err != nil {
			return err
		}
		cid := tr.add(req, hid, "cache.query", ans.Source, t0, d, nil)
		if ans.Source == cache.SourceComputed {
			if err := p.coreRank(ctx, req, cid, st, q, mode); err != nil {
				return err
			}
		}
		if st.Kind == opQuery && ans.Source == cache.SourceResult && p.nTermHit%16 == 0 {
			// A k nobody asked for yet: the result cache misses and
			// the cached term vector is re-ranked.
			k := st.K + 1 + (p.nTermHit/16)%64
			t0 = time.Now()
			th, err := p.c2.QueryModePinnedCtx(ctx, pin2, q, k, mode)
			d = time.Since(t0)
			if err == nil && th.Source == cache.SourceTerm {
				tr.add(req, 0, "cache.query", "term", t0, d, nil)
			}
		}
		p.nTermHit++
		if st.Kind == opRequery && p.prev != nil {
			p.warmRatio(ctx, req, q)
		}
		p.encodeLike(req, hid, "query", qa)

	case opProfileQuery:
		rec, t0, d := p.serve(concrete(st, ss, 0))
		if rec.Code != http.StatusOK {
			return bad(rec)
		}
		var qa server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qa); err != nil {
			return err
		}
		hid := tr.add(req, parent, "server.handler", "profile", t0, d, map[string]any{"bytes": rec.Body.Len(), "source": qa.Cache})
		t0 = time.Now()
		_, src, err := p.m2.QueryCtx(ctx, p.eng2.Pin(), st.Profile, q, st.K)
		d = time.Since(t0)
		if err != nil {
			return err
		}
		tr.add(req, hid, "profile.query", string(src), t0, d, nil)
		p.encodeLike(req, hid, "profile", qa)

	case opBatch:
		rec, t0, d := p.serve(batchRequest(st.Batch))
		if rec.Code != http.StatusOK {
			return bad(rec)
		}
		var ba server.BatchQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ba); err != nil {
			return err
		}
		hid := tr.add(req, parent, "server.handler", "batch", t0, d, map[string]any{"bytes": rec.Body.Len()})
		qs := make([]*ir.Query, len(st.Batch))
		ks := make([]int, len(st.Batch))
		for i, it := range st.Batch {
			qs[i], ks[i] = ir.ParseQuery(it.Q), 10
		}
		t0 = time.Now()
		answers, err := p.c2.QueryBatchModePinnedCtx(ctx, p.eng2.Pin(), qs, ks, nil)
		d = time.Since(t0)
		if err != nil {
			return err
		}
		var missed []*ir.Query
		for i, a := range answers {
			if a.Source == cache.SourceComputed {
				missed = append(missed, qs[i])
			}
		}
		cid := tr.add(req, hid, "cache.batch", "", t0, d, map[string]any{"computed": len(missed)})
		if len(missed) > 0 {
			t0 = time.Now()
			results, err := p.eng3.Pin().RankManyCtx(ctx, missed)
			d = time.Since(t0)
			if err != nil {
				return err
			}
			for _, r := range results {
				p.eng3.Release(r)
			}
			tr.add(req, cid, "rank.block", "", t0, d, map[string]any{"columns": len(missed)})
		}
		p.encodeLike(req, hid, "batch", ba)

	case opExplain, opAudit:
		class := st.Kind.String()
		rec, t0, d := p.serve(concrete(st, ss, 0))
		if rec.Code != http.StatusOK {
			return bad(rec)
		}
		hid := tr.add(req, parent, "server.handler", class, t0, d, map[string]any{"bytes": rec.Body.Len()})
		pin2 := p.eng2.Pin()
		t0 = time.Now()
		res2, err := p.c2.RankModePinnedCtx(ctx, pin2, q, mode)
		d = time.Since(t0)
		if err != nil {
			return err
		}
		p.eng2.Release(res2)
		tr.add(req, hid, "cache.rank", class, t0, d, nil)

		pin3 := p.eng3.Pin()
		res3, err := pin3.RankModeCtx(ctx, q, mode)
		if err != nil {
			return err
		}
		defer p.eng3.Release(res3)
		target := graph.NodeID(ss.target)
		if st.Kind == opExplain {
			t0 = time.Now()
			sg, err := pin3.ExplainModeCtx(ctx, mode, res3, target, core.DefaultExplain())
			d = time.Since(t0)
			if err != nil {
				return err
			}
			tr.add(req, hid, "core.explain", class, t0, d, map[string]any{"nodes": len(sg.Nodes), "arcs": len(sg.Arcs)})
			var xa server.ExplainResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &xa); err != nil {
				return err
			}
			p.encodeLike(req, hid, class, xa)
		} else {
			t0 = time.Now()
			if _, err := pin3.AuditCtx(ctx, mode, res3, target, core.AuditOptions{}); err != nil {
				return err
			}
			tr.add(req, hid, "core.audit", class, t0, time.Since(t0), nil)
			var aa server.AuditResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &aa); err != nil {
				return err
			}
			p.encodeLike(req, hid, class, aa)
		}

	case opReformulate:
		// Level A holds its own rates, which the replayed publishes
		// have moved in step with the real system's; the token is its
		// own version.
		rec, t0, d := p.serve(concrete(st, ss, p.srv.Engine().RatesVersion()))
		if rec.Code != http.StatusOK {
			return bad(rec)
		}
		var ra server.ReformulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ra); err != nil {
			return err
		}
		hid := tr.add(req, parent, "server.handler", "reformulate", t0, d, map[string]any{"bytes": rec.Body.Len()})
		pin2 := p.eng2.Pin()
		t0 = time.Now()
		res2, err := p.c2.RankPinnedCtx(ctx, pin2, q)
		d = time.Since(t0)
		if err != nil {
			return err
		}
		p.eng2.Release(res2)
		tr.add(req, hid, "cache.rank", "reformulate", t0, d, nil)

		pin3 := p.eng3.Pin()
		res3, err := pin3.RankCtx(ctx, q)
		if err != nil {
			return err
		}
		var subs []*core.Subgraph
		for _, id := range ss.feedback {
			t0 = time.Now()
			sg, err := pin3.ExplainCtx(ctx, res3, graph.NodeID(id), core.DefaultExplain())
			d = time.Since(t0)
			if err != nil {
				return err
			}
			tr.add(req, hid, "core.explain", "feedback", t0, d, map[string]any{"nodes": len(sg.Nodes), "arcs": len(sg.Arcs)})
			subs = append(subs, sg)
		}
		t0 = time.Now()
		ref, err := pin3.ReformulateWeightedCtx(ctx, q, subs, nil, core.StructureOnly())
		d = time.Since(t0)
		if err != nil {
			return err
		}
		tr.add(req, hid, "core.reformulate", "", t0, d, nil)
		t0 = time.Now()
		_, err = p.eng3.TrySetRates(ref.Rates, pin3.Version())
		d = time.Since(t0)
		if err != nil {
			return fmt.Errorf("probe: publishing: %w", err)
		}
		tr.add(req, hid, "core.publish", "", t0, d, nil)
		if _, err := p.eng2.TrySetRates(ref.Rates.Clone(), pin2.Version()); err != nil {
			return fmt.Errorf("probe: publishing: %w", err)
		}
		p.prev = append(p.prev[:0], res3.Scores...)
		p.eng3.Release(res3)
		p.encodeLike(req, hid, "reformulate", ra)
	}
	return nil
}

// coreRank records what the cache does on a miss: one uncached solve at
// level C, with its base set and its kernel iteration as children, and
// then the top-k scan.
func (p *probe) coreRank(ctx context.Context, req, parent int, st step, q *ir.Query, mode core.Mode) error {
	pin := p.eng3.Pin()
	t0 := time.Now()
	res, err := pin.RankModeCtx(ctx, q, mode)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	class := string(mode)
	rid := p.tr.add(req, parent, "core.rank", class, t0, d, map[string]any{"iterations": res.Iterations})
	t0b := time.Now()
	base := pin.BaseSet(q)
	p.tr.add(req, rid, "ir.baseset", class, t0b, time.Since(t0b), map[string]any{"size": len(base)})
	// The kernel is not called a second time on its own: its interval
	// is the one the solve itself measured.
	p.tr.add(req, rid, "rank.iterate", class, t0.Add(res.BaseSetDur), res.SolveDur, map[string]any{"iterations": res.Iterations})
	// The top-k scan is the cache's own next step on a miss, not part
	// of the solve: a sibling of core.rank.
	p.tr.timed(req, parent, "core.topk", class, func() { res.TopK(st.K) })
	p.eng3.Release(res)
	return nil
}

// warmRatio solves q at level C twice under the rates just published,
// cold and warm-started from the ranking the feedback came from, and
// records both sweep counts.
func (p *probe) warmRatio(ctx context.Context, req int, q *ir.Query) {
	pin := p.eng3.Pin()
	cold, err := pin.RankColdCtx(ctx, q)
	if err != nil {
		return
	}
	coldIters := cold.Iterations
	p.eng3.Release(cold)
	t0 := time.Now()
	warm, err := pin.RankFromCtx(ctx, q, p.prev)
	d := time.Since(t0)
	if err != nil {
		return
	}
	p.tr.add(req, 0, "rank.warm", "", t0, d, map[string]any{"warm": warm.Iterations, "cold": coldIters})
	p.eng3.Release(warm)
}

// static measures what does not depend on the traffic: the snapshot
// codec, the graph's size, and the observability middleware.
func (p *probe) static(snapshot, dir string, m map[string]metric) error {
	var writes, loads []float64
	var size int64
	cp := &corpus{ds: p.ds, ix: p.ix}
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, "probe.snap")
		t0 := time.Now()
		n, err := cp.writeSnapshot(path)
		if err != nil {
			return err
		}
		writes = append(writes, time.Since(t0).Seconds())
		size = n
		_, _, _, took, err := loadEngine(path)
		if err != nil {
			return err
		}
		loads = append(loads, took.Seconds())
	}
	setMetric(m, perLayer, "storage.snapshot_write_ms", median(writes)*1e3)
	setMetric(m, perLayer, "storage.snapshot_bytes", float64(size))
	setMetric(m, perLayer, "storage.snapshot_load_ms", median(loads)*1e3)

	g := p.ds.Graph
	fs, fa := g.ForwardCSR()
	rs, ra := g.ReverseCSR()
	setMetric(m, perLayer, "graph.nodes", float64(g.NumNodes()))
	setMetric(m, perLayer, "graph.arcs", float64(g.NumArcs()))
	setMetric(m, perLayer, "graph.csr_bytes", float64((len(fs)+len(rs))*4+(len(fa)+len(ra))*12))

	mw := obs.NewMiddleware(obs.NewRegistry(), "probe")
	h := mw.Wrap("/noop", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest(http.MethodGet, "/noop", nil)
	var durs []float64
	for i := 0; i < 2000; i++ {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		durs = append(durs, time.Since(t0).Seconds())
	}
	setMetric(m, perLayer, "obs.middleware_us", median(durs)*1e6)
	return nil
}

// bytesPerSweep is the computed traffic of one kernel sweep: every arc
// read once (12 B of CSR entry and 8 B of source score) and every node's
// score read and written (16 B). Computed from the graph's size, not
// measured.
func bytesPerSweep(arcs, nodes float64) float64 { return arcs*20 + nodes*16 }
