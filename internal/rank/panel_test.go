package rank

import (
	"context"
	"fmt"
	"math"
	"testing"

	"authorityflow/internal/graph"
)

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

// assertColumnBitIdentical fails unless got matches the standalone
// Iterate result bit for bit — scores, iteration count, convergence
// decision, error identity.
func assertColumnBitIdentical(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: Iterations = %d, want %d", label, got.Iterations, want.Iterations)
	}
	if got.Converged != want.Converged {
		t.Errorf("%s: Converged = %v, want %v", label, got.Converged, want.Converged)
	}
	if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err != want.Err) {
		t.Errorf("%s: Err = %v, want %v", label, got.Err, want.Err)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: %d scores, want %d", label, len(got.Scores), len(want.Scores))
	}
	for v := range want.Scores {
		if math.Float64bits(got.Scores[v]) != math.Float64bits(want.Scores[v]) {
			t.Errorf("%s: score[%d] bits = %#016x (%v), want %#016x (%v)",
				label, v, math.Float64bits(got.Scores[v]), got.Scores[v],
				math.Float64bits(want.Scores[v]), want.Scores[v])
			return // one mismatch report per column is enough
		}
	}
}

// TestIteratePanelGoldenEquivalence is the tentpole contract: for every
// block width (including 1 and a ragged 7), every damping/threshold/
// max-iters combination, with and without warm starts, each panel
// column is bit-identical to the standalone Iterate run of the same
// base set.
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
		{Damping: ZeroDamping, Threshold: 1e-12},                     // fixpoint = base
		{Threshold: ZeroThreshold, MaxIters: 13},                     // never converges, fixed sweeps
		{MaxIters: ZeroIters},                                        // zero iterations
		{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000, Init: warm}, // warm start
	}
	for _, B := range []int{1, 2, 7, 64} {
		bases := blockBases(g, B)
		for oi, o := range optsMatrix {
			label := fmt.Sprintf("B=%d opts=%d", B, oi)
			block := Iterate(g, alpha, bases, []Options{o}, nil, nil)
			if len(block) != B {
				t.Fatalf("%s: %d results for %d bases", label, len(block), B)
			}
			for j := 0; j < B; j++ {
				single := iterate1(g, alpha, bases[j], o, nil)
				assertColumnBitIdentical(t, fmt.Sprintf("%s col=%d", label, j), block[j], single)
			}
		}
	}
}

// TestIteratePanelPerColumnOptions drives one panel whose columns carry
// DIFFERENT options — mixed damping, thresholds, iteration budgets and
// warm starts — and checks each column still matches its standalone
// solve bit for bit (the freeze rule isolates columns completely).
func TestIteratePanelPerColumnOptions(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	base := fig1Base(g)
	warm := run(g, r, base, Options{Damping: 0.85, Threshold: 1e-6, MaxIters: 500})

	bases := blockBases(g, 5)
	perCol := []Options{
		{Damping: 0.85, Threshold: 1e-10, MaxIters: 500},
		{Damping: 0.5, Threshold: 1e-4},
		{Threshold: ZeroThreshold, MaxIters: 3},
		{MaxIters: ZeroIters},
		{Damping: 0.85, Threshold: 1e-10, MaxIters: 500, Init: warm.Scores},
	}
	pool := NewBufferPool()
	block := Iterate(g, alpha, bases, perCol, pool, nil)
	for j := range bases {
		single := iterate1(g, alpha, bases[j], perCol[j], nil)
		assertColumnBitIdentical(t, fmt.Sprintf("col=%d", j), block[j], single)
		block[j].ReleaseTo(pool)
	}
}

// TestIteratePanelObservePerColumn checks the per-column Observe
// contract: every live column gets one callback per completed sweep
// with its OWN residual, the residual sequence matches the standalone
// solve's exactly, and frozen columns stop observing.
func TestIteratePanelObservePerColumn(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	bases := blockBases(g, 3)
	perCol := make([]Options, 3)
	got := make([][]float64, 3)
	thresholds := []float64{1e-4, 1e-8, 1e-12}
	for j := range perCol {
		j := j
		perCol[j] = Options{Damping: 0.85, Threshold: thresholds[j], MaxIters: 500,
			Observe: func(iter int, res float64) {
				if iter != len(got[j])+1 {
					t.Errorf("col %d: observer iter %d out of order", j, iter)
				}
				got[j] = append(got[j], res)
			}}
	}
	block := Iterate(g, alpha, bases, perCol, nil, nil)
	for j := range bases {
		var want []float64
		o := perCol[j]
		o.Observe = func(iter int, res float64) { want = append(want, res) }
		single := iterate1(g, alpha, bases[j], o, nil)
		if len(got[j]) != single.Iterations || len(got[j]) != len(want) {
			t.Fatalf("col %d: %d observations for %d iterations", j, len(got[j]), single.Iterations)
		}
		for i := range want {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[i]) {
				t.Errorf("col %d iter %d: residual %v, want %v", j, i+1, got[j][i], want[i])
			}
		}
		if block[j].Iterations != single.Iterations {
			t.Errorf("col %d: %d iterations, want %d", j, block[j].Iterations, single.Iterations)
		}
	}
}

// TestIteratePanelPerColumnCancel cancels ONE column's context
// mid-solve and checks: that column freezes with the context error and
// a complete (unconverged) iteration state, while its panel-mates run
// to convergence bit-identical to standalone solves.
func TestIteratePanelPerColumnCancel(t *testing.T) {
	g, r, _ := dblpFixture(t)
	alpha := r.Vector()
	bases := blockBases(g, 4)

	ctx, cancel := context.WithCancel(context.Background())
	const cancelAfter = 5
	perCol := make([]Options, 4)
	for j := range perCol {
		perCol[j] = Options{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000}
	}
	perCol[2].Ctx = ctx
	perCol[2].Observe = func(iter int, res float64) {
		if iter == cancelAfter {
			cancel()
		}
	}
	block := Iterate(g, alpha, bases, perCol, nil, nil)

	// The cancelled column stopped within one sweep with a complete
	// iteration state: its scores equal a ZeroThreshold run of exactly
	// the sweeps it completed.
	if block[2].Err != context.Canceled {
		t.Fatalf("cancelled column Err = %v", block[2].Err)
	}
	if block[2].Converged {
		t.Error("cancelled column reported converged")
	}
	if block[2].Iterations != cancelAfter {
		t.Errorf("cancelled column ran %d iterations, want %d", block[2].Iterations, cancelAfter)
	}
	truncated := iterate1(g, alpha, bases[2], Options{Damping: 0.85, Threshold: ZeroThreshold, MaxIters: cancelAfter}, nil)
	for v := range truncated.Scores {
		if math.Float64bits(block[2].Scores[v]) != math.Float64bits(truncated.Scores[v]) {
			t.Fatalf("cancelled column score[%d] differs from %d-sweep state", v, cancelAfter)
		}
	}
	// The other columns are untouched by their neighbor's cancellation.
	for _, j := range []int{0, 1, 3} {
		single := iterate1(g, alpha, bases[j], perCol[j], nil)
		assertColumnBitIdentical(t, fmt.Sprintf("survivor col=%d", j), block[j], single)
	}
}

// TestIteratePanelCancelledBeforeStart: a ctx dead at entry freezes
// every ctx-carrying column at its start vector with zero iterations,
// matching Iterate.
func TestIteratePanelCancelledBeforeStart(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	bases := blockBases(g, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	block := Iterate(g, alpha, bases, []Options{{Ctx: ctx}}, nil, nil)
	for j := range bases {
		if block[j].Err != context.Canceled || block[j].Iterations != 0 {
			t.Fatalf("col %d: err=%v iters=%d, want Canceled/0", j, block[j].Err, block[j].Iterations)
		}
		for v := range bases[j] {
			if block[j].Scores[v] != bases[j][v] {
				t.Fatalf("col %d: scores are not the start vector", j)
			}
		}
	}
}

// TestIteratePanelGoldenFig1 pins the blocked kernel directly against
// the seed implementation's golden bits: a panel containing the Figure 1
// base set must reproduce fig1GoldenBits in its lane regardless of what
// shares the panel.
func TestIteratePanelGoldenFig1(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	bases := append([][]float64{fig1Base(g)}, blockBases(g, 3)...)
	o := Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}
	block := Iterate(g, alpha, bases, []Options{o}, nil, nil)
	if !block[0].Converged || block[0].Iterations != fig1GoldenIters {
		t.Fatalf("converged=%v iterations=%d, want true/%d", block[0].Converged, block[0].Iterations, fig1GoldenIters)
	}
	for i, want := range fig1GoldenBits {
		if got := math.Float64bits(block[0].Scores[i]); got != want {
			t.Errorf("score[v%d] bits = %#016x, want %#016x", i+1, got, want)
		}
	}
}

// TestIteratePanelPanics checks the malformed-input contract.
func TestIteratePanelPanics(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	ok := blockBases(g, 2)
	other, otherRates, _ := dblpFixture(t)
	cases := []struct {
		name  string
		bases [][]float64
		opts  []Options
		plan  *Plan
	}{
		{"short base", [][]float64{ok[0], make([]float64, g.NumNodes()-1)}, []Options{{}}, nil},
		{"opts arity", ok, []Options{{}, {}, {}}, nil},
		{"plan of another graph", ok, []Options{{}}, NewPlan(other, otherRates.Vector(), 0.85, nil)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", c.name)
				}
			}()
			Iterate(g, alpha, c.bases, c.opts, nil, c.plan)
		})
	}
}

// TestIteratePanelDegradesStaleInit pins the blocked kernel's half of
// the stale-warm-start fix (ISSUE 9 satellite): a column whose Init
// length does not match the graph — the signature of a vector donated
// across a concurrent corpus swap — must degrade to a cold start with
// InitDropped set, bit-identical to the explicitly cold column, while
// well-sized columns in the same panel keep their warm starts.
func TestIteratePanelDegradesStaleInit(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	bases := blockBases(g, 2)
	o := Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}
	warmInit := make([]float64, g.NumNodes())
	for i := range warmInit {
		warmInit[i] = 1 / float64(len(warmInit))
	}
	staleInit := make([]float64, g.NumNodes()+7)

	oStale, oWarm := o, o
	oStale.Init = staleInit
	oWarm.Init = warmInit
	block := Iterate(g, alpha, bases, []Options{oStale, oWarm}, nil, nil)
	if !block[0].InitDropped {
		t.Fatal("stale-init column not reported as dropped")
	}
	if block[1].InitDropped {
		t.Fatal("well-sized init column reported as dropped")
	}

	cold := iterate1(g, alpha, bases[0], o, nil)
	if block[0].Iterations != cold.Iterations || block[0].Converged != cold.Converged {
		t.Fatalf("degraded column (iters=%d conv=%v) differs from cold solve (iters=%d conv=%v)",
			block[0].Iterations, block[0].Converged, cold.Iterations, cold.Converged)
	}
	for v := range cold.Scores {
		if math.Float64bits(block[0].Scores[v]) != math.Float64bits(cold.Scores[v]) {
			t.Fatalf("score[%d]: degraded column %v != cold solve %v", v, block[0].Scores[v], cold.Scores[v])
		}
	}
	warm := iterate1(g, alpha, bases[1], oWarm, nil)
	for v := range warm.Scores {
		if math.Float64bits(block[1].Scores[v]) != math.Float64bits(warm.Scores[v]) {
			t.Fatalf("score[%d]: warm column %v != warm solve %v", v, block[1].Scores[v], warm.Scores[v])
		}
	}
}

// TestIteratePanelEmpty: zero base sets is a no-op, not a panic.
func TestIteratePanelEmpty(t *testing.T) {
	g, r := fig1Fixture(t)
	if res := Iterate(g, r.Vector(), nil, []Options{{}}, nil, nil); res != nil {
		t.Fatalf("Iterate(nil bases) = %v, want nil", res)
	}
}
