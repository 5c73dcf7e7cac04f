package rank

import (
	"context"
	"fmt"
	"math"
	"testing"

	"authorityflow/internal/graph"
)

// A panel is what core.Pinned.Solve makes of a group of two or more
// columns: one Iterate call per column, each over the group's shared
// coefficient plan, so each sweeps sweepPlan. The tests here hold every
// such column bit-identical to the same column solved alone with no
// plan — sweep, the arc-struct body — over every option case: scores,
// iterations, convergence, error, a dropped Init and the residuals
// Observe sees.

// blockBases builds B distinct base distributions over g: base j puts
// mass on nodes j, j+3, j+7 (mod n) with varying weights, normalized.
func blockBases(g *graph.Graph, B int) [][]float64 {
	n := g.NumNodes()
	bases := make([][]float64, B)
	for j := 0; j < B; j++ {
		b := make([]float64, n)
		b[j%n] = 0.5
		b[(j+3)%n] += 0.3
		b[(j+7)%n] += 0.2
		NormalizeDist(b)
		bases[j] = b
	}
	return bases
}

// planFor is the plan a panel solved under o sweeps: g's under alpha at
// o's damping.
func planFor(g *graph.Graph, alpha []float64, o Options) *Plan {
	return NewPlan(g, alpha, o.Normalized().Damping, nil)
}

// observed returns o with Observe also appending every residual to
// *dst.
func observed(o Options, dst *[]float64) Options {
	prev := o.Observe
	o.Observe = func(it int, r float64) {
		*dst = append(*dst, r)
		if prev != nil {
			prev(it, r)
		}
	}
	return o
}

// columnDiff describes the first way got differs from want — scores,
// iteration count, convergence decision, error identity, dropped Init,
// or the residual sequences gotRes and wantRes — or returns "".
func columnDiff(got, want Result, gotRes, wantRes []float64) string {
	switch {
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	case got.Converged != want.Converged:
		return fmt.Sprintf("Converged = %v, want %v", got.Converged, want.Converged)
	case got.Err != want.Err:
		return fmt.Sprintf("Err = %v, want %v", got.Err, want.Err)
	case got.InitDropped != want.InitDropped:
		return fmt.Sprintf("InitDropped = %v, want %v", got.InitDropped, want.InitDropped)
	case len(got.Scores) != len(want.Scores):
		return fmt.Sprintf("%d scores, want %d", len(got.Scores), len(want.Scores))
	case len(gotRes) != len(wantRes):
		return fmt.Sprintf("%d residuals observed, want %d", len(gotRes), len(wantRes))
	}
	if v := firstDiff(got.Scores, want.Scores); v >= 0 {
		return fmt.Sprintf("score[%d] bits = %#016x (%v), want %#016x (%v)", v,
			math.Float64bits(got.Scores[v]), got.Scores[v], math.Float64bits(want.Scores[v]), want.Scores[v])
	}
	if i := firstDiff(gotRes, wantRes); i >= 0 {
		return fmt.Sprintf("residual of sweep %d = %v, want %v", i+1, gotRes[i], wantRes[i])
	}
	return ""
}

// planVsSweep solves base under o over plan (from pool) and alone with
// no plan, and describes the first difference, or returns "".
func planVsSweep(g *graph.Graph, alpha, base []float64, o Options, plan *Plan, pool *BufferPool) string {
	var gotRes, wantRes []float64
	got := Iterate(g, alpha, base, observed(o, &gotRes), pool, plan)
	want := Iterate(g, alpha, base, observed(o, &wantRes), nil, nil)
	d := columnDiff(got, want, gotRes, wantRes)
	got.ReleaseTo(pool)
	return d
}

// TestIteratePanelGoldenEquivalence is the contract: under every
// damping/threshold/max-iters combination, with and without warm
// starts, each of a 64-column panel's columns is bit-identical to the
// same base set solved alone.
func TestIteratePanelGoldenEquivalence(t *testing.T) {
	g, r, _ := dblpFixture(t)
	alpha := r.Vector()
	n := g.NumNodes()

	warm := make([]float64, n) // a deliberately lumpy warm-start vector
	for i := range warm {
		warm[i] = 1 / float64(3+i%11)
	}
	NormalizeDist(warm)

	optsMatrix := []Options{
		{}, // paper defaults
		{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000},             // tight convergence
		{Damping: 0.5, Threshold: 1e-6},                              // different damping
		{Threshold: ZeroThreshold, MaxIters: 13},                     // never converges, fixed sweeps
		{MaxIters: ZeroIters},                                        // zero iterations
		{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000, Init: warm}, // warm start
	}
	bases := blockBases(g, 64)
	pool := NewBufferPool()
	for oi, o := range optsMatrix {
		plan := planFor(g, alpha, o)
		for j, base := range bases {
			if d := planVsSweep(g, alpha, base, o, plan, pool); d != "" {
				t.Errorf("opts=%d col=%d: %s", oi, j, d)
			}
		}
	}
}

// TestIteratePanelPerColumnOptions drives columns that carry DIFFERENT
// options — mixed damping, thresholds, iteration budgets and warm
// starts — each over the plan of its damping and one shared pool, and
// checks each still matches its standalone solve bit for bit.
func TestIteratePanelPerColumnOptions(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	warm := run(g, r, fig1Base(g), Options{Damping: 0.85, Threshold: 1e-6, MaxIters: 500})

	bases := blockBases(g, 5)
	perCol := []Options{
		{Damping: 0.85, Threshold: 1e-10, MaxIters: 500},
		{Damping: 0.5, Threshold: 1e-4},
		{Threshold: ZeroThreshold, MaxIters: 3},
		{MaxIters: ZeroIters},
		{Damping: 0.85, Threshold: 1e-10, MaxIters: 500, Init: warm.Scores},
	}
	pool := NewBufferPool()
	for j := range bases {
		if d := planVsSweep(g, alpha, bases[j], perCol[j], planFor(g, alpha, perCol[j]), pool); d != "" {
			t.Errorf("col=%d: %s", j, d)
		}
	}
}

// TestIteratePanelObservePerColumn checks the Observe contract over a
// plan: one callback per completed sweep, indices 1, 2, … in order, and
// the residual sequence of the arc-struct body, bit for bit.
func TestIteratePanelObservePerColumn(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	bases := blockBases(g, 3)
	plan := NewPlan(g, alpha, 0.85, nil)
	for j, th := range []float64{1e-4, 1e-8, 1e-12} {
		o := Options{Damping: 0.85, Threshold: th, MaxIters: 500}
		if d := planVsSweep(g, alpha, bases[j], o, plan, nil); d != "" {
			t.Errorf("col %d: %s", j, d)
		}
		calls := 0
		o.Observe = func(iter int, _ float64) {
			if calls++; iter != calls {
				t.Errorf("col %d: observer call %d reported iteration %d", j, calls, iter)
			}
		}
		if res := Iterate(g, alpha, bases[j], o, nil, plan); calls != res.Iterations {
			t.Errorf("col %d: %d observer calls for %d iterations", j, calls, res.Iterations)
		}
	}
}

// TestIteratePanelPerColumnCancel cancels one column of a four-column
// panel mid-solve: that column freezes with the context error and the
// complete state of its last sweep — the arc-struct body's run
// truncated there — while the columns solved after it over the same
// plan and pool are untouched.
func TestIteratePanelPerColumnCancel(t *testing.T) {
	g, r, _ := dblpFixture(t)
	alpha := r.Vector()
	bases := blockBases(g, 4)
	o := Options{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000}
	plan, pool := planFor(g, alpha, o), NewBufferPool()

	ctx, cancel := context.WithCancel(context.Background())
	const cancelAfter = 5
	oc := o
	oc.Ctx = ctx
	oc.Observe = func(iter int, res float64) {
		if iter == cancelAfter {
			cancel()
		}
	}
	for j, base := range bases {
		if j != 2 {
			if d := planVsSweep(g, alpha, base, o, plan, pool); d != "" {
				t.Errorf("survivor col=%d: %s", j, d)
			}
			continue
		}
		got := Iterate(g, alpha, base, oc, pool, plan)
		if got.Err != context.Canceled || got.Converged || got.Iterations != cancelAfter {
			t.Fatalf("cancelled column: err=%v converged=%v iterations=%d, want Canceled/false/%d",
				got.Err, got.Converged, got.Iterations, cancelAfter)
		}
		truncated := Iterate(g, alpha, base, Options{Damping: 0.85, Threshold: ZeroThreshold, MaxIters: cancelAfter}, nil, nil)
		if v := firstDiff(got.Scores, truncated.Scores); v >= 0 {
			t.Fatalf("cancelled column score[%d] differs from the %d-sweep state", v, cancelAfter)
		}
		got.ReleaseTo(pool)
	}
}

// TestIteratePanelCancelledBeforeStart: a ctx dead at entry stops a
// run over a plan at its start vector with zero iterations.
func TestIteratePanelCancelledBeforeStart(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := planFor(g, alpha, Options{})
	for j, base := range blockBases(g, 2) {
		res := Iterate(g, alpha, base, Options{Ctx: ctx}, nil, plan)
		if res.Err != context.Canceled || res.Iterations != 0 {
			t.Fatalf("col %d: err=%v iters=%d, want Canceled/0", j, res.Err, res.Iterations)
		}
		if v := firstDiff(res.Scores, base); v >= 0 {
			t.Fatalf("col %d: score[%d] is not the start vector's", j, v)
		}
	}
}

// TestIteratePanelGoldenFig1 pins the plan body directly against the
// seed implementation's golden bits on the Figure 1 base set.
func TestIteratePanelGoldenFig1(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	o := Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}
	res := Iterate(g, alpha, fig1Base(g), o, nil, planFor(g, alpha, o))
	if !res.Converged || res.Iterations != fig1GoldenIters {
		t.Fatalf("converged=%v iterations=%d, want true/%d", res.Converged, res.Iterations, fig1GoldenIters)
	}
	for i, want := range fig1GoldenBits {
		if got := math.Float64bits(res.Scores[i]); got != want {
			t.Errorf("score[v%d] bits = %#016x, want %#016x", i+1, got, want)
		}
	}
}

// TestIteratePanelPanics checks the malformed-input contract.
func TestIteratePanelPanics(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	base := fig1Base(g)
	other, otherRates, _ := dblpFixture(t)
	cases := []struct {
		name  string
		alpha []float64
		base  []float64
		opts  Options
		plan  *Plan
	}{
		{"short base", alpha, make([]float64, g.NumNodes()-1), Options{}, nil},
		{"short alpha", alpha[:1], base, Options{}, nil},
		{"negative damping", alpha, base, Options{Damping: -1}, nil},
		{"damping one", alpha, base, Options{Damping: 1}, nil},
		{"NaN damping", alpha, base, Options{Damping: math.NaN()}, nil},
		{"plan of another graph", alpha, base, Options{}, NewPlan(other, otherRates.Vector(), 0.85, nil)},
		{"plan at another damping", alpha, base, Options{Damping: 0.5}, NewPlan(g, alpha, 0.85, nil)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", c.name)
				}
			}()
			Iterate(g, c.alpha, c.base, c.opts, nil, c.plan)
		})
	}
}

// TestIteratePanelDegradesStaleInit: over a plan, an Init whose length
// does not match the graph — the signature of a vector donated across a
// concurrent corpus swap — degrades to a cold start with InitDropped
// set, bit-identical to the arc-struct body's, while a well-sized Init
// keeps its warm start.
func TestIteratePanelDegradesStaleInit(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	bases := blockBases(g, 2)
	o := Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}
	plan := planFor(g, alpha, o)
	warmInit := make([]float64, g.NumNodes())
	for i := range warmInit {
		warmInit[i] = 1 / float64(len(warmInit))
	}
	oStale, oWarm := o, o
	oStale.Init = make([]float64, g.NumNodes()+7)
	oWarm.Init = warmInit

	stale := Iterate(g, alpha, bases[0], oStale, nil, plan)
	if !stale.InitDropped {
		t.Fatal("stale-init column not reported as dropped")
	}
	cold := Iterate(g, alpha, bases[0], o, nil, nil)
	cold.InitDropped = true
	if d := columnDiff(stale, cold, nil, nil); d != "" {
		t.Fatalf("degraded column against the cold solve: %s", d)
	}
	warm := Iterate(g, alpha, bases[1], oWarm, nil, plan)
	if warm.InitDropped {
		t.Fatal("well-sized init column reported as dropped")
	}
	if d := planVsSweep(g, alpha, bases[1], oWarm, plan, nil); d != "" {
		t.Fatalf("warm column: %s", d)
	}
}

// TestIteratePanelBite checks that planVsSweep, the comparison every
// test above rests on, sees the plan: a plan whose coefficients were
// folded at another damping, or under other rates, fails it.
func TestIteratePanelBite(t *testing.T) {
	g, r, base := dblpFixture(t)
	alpha := r.Vector()
	o := Options{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000}
	if d := planVsSweep(g, alpha, base, o, planFor(g, alpha, o), nil); d != "" {
		t.Fatalf("the right plan: %s", d)
	}
	misfolded := NewPlan(g, alpha, 0.5, nil)
	misfolded.d = o.Damping // labelled with the run's damping, so Iterate takes it
	otherAlpha := append([]float64(nil), alpha...)
	for i := range otherAlpha {
		otherAlpha[i] *= 0.9
	}
	for name, plan := range map[string]*Plan{
		"another damping's coefficients": misfolded,
		"other rates' coefficients":      NewPlan(g, otherAlpha, o.Damping, nil),
	} {
		if d := planVsSweep(g, alpha, base, o, plan, nil); d == "" {
			t.Errorf("a plan of %s passed for the run's", name)
		}
	}
}
