package experiments

import (
	"math"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// TestNormalizingExponentGolden pins the g(t) clamp behaviour for the
// degenerate base-set sizes where Equation 16's 1/ln(|S(t)|) is
// undefined or inverted (see the normalizingExponent doc and DESIGN.md
// §2): sizes 0, 1 and 2 clamp to exponent 1 (raw scores), size 3 is the
// first size that follows the paper's formula exactly, and from there
// the exponent tracks 1/ln(n) bit-for-bit.
func TestNormalizingExponentGolden(t *testing.T) {
	golden := []struct {
		size int
		want float64
	}{
		{0, 1},                 // empty base set: ln(0) = -Inf, clamp
		{1, 1},                 // ln(1) = 0: division by zero, clamp
		{2, 1},                 // ln(2) ≈ 0.693 < 1: exponent would EXCEED 1, clamp
		{3, 1 / math.Log(3)},   // ln(3) ≈ 1.0986 > 1: paper formula, ≈ 0.9102
		{10, 1 / math.Log(10)}, // deep in paper territory, ≈ 0.4343
	}
	for _, g := range golden {
		if got := normalizingExponent(g.size); got != g.want {
			t.Errorf("normalizingExponent(%d) = %v, want %v", g.size, got, g.want)
		}
	}
	// Spot-check the boundary numerically: the size-3 exponent must be
	// strictly below 1 (no clamp) and above the size-10 exponent
	// (monotone damping of popular keywords).
	e3, e10 := normalizingExponent(3), normalizingExponent(10)
	if !(e3 < 1 && e10 < e3) {
		t.Fatalf("exponent not monotone: g(3)=%v g(10)=%v", e3, e10)
	}
}

// TestNormalizingExponentNeverExceedsOne sweeps sizes 0..100: the clamp
// guarantees the combination never AMPLIFIES a keyword's skew (exponent
// > 1 on scores < 1 would shrink rare-keyword scores harder than common
// ones — the inversion the clamp exists to prevent).
func TestNormalizingExponentNeverExceedsOne(t *testing.T) {
	for n := 0; n <= 100; n++ {
		if e := normalizingExponent(n); e > 1 || e <= 0 || math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("normalizingExponent(%d) = %v out of (0, 1]", n, e)
		}
	}
}

func TestNormalizingExponent(t *testing.T) {
	if g := normalizingExponent(0); g != 1 {
		t.Errorf("g(0) = %v", g)
	}
	if g := normalizingExponent(2); g != 1 {
		t.Errorf("g(2) = %v, want clamp to 1", g)
	}
	g1000 := normalizingExponent(1000)
	g10 := normalizingExponent(10)
	if !(g1000 < g10 && g10 < 1) {
		t.Errorf("exponent not decreasing: g(10)=%v g(1000)=%v", g10, g1000)
	}
}

// TestObjectRankBaselineMultiKeyword checks Eq. 16's product semantics
// on a citation star: "olap" papers 0 and 1 and the "databases" paper
// 2 all cite paper 3, and paper 4 stands alone.
func TestObjectRankBaselineMultiKeyword(t *testing.T) {
	g, r := paperGraph(t, 5, [][2]int{{0, 3}, {1, 3}, {2, 3}}, 0.7, 0,
		"Index Selection for OLAP", "Range Queries in OLAP Data Cubes",
		"Modeling Multidimensional Databases", "Data Cube")
	e, err := core.NewEngine(g, r, core.Config{Rank: rank.Options{Threshold: 1e-12, MaxIters: 500}})
	if err != nil {
		t.Fatal(err)
	}
	pin := e.Pin()
	solve := func(q *ir.Query) *core.RankResult {
		t.Helper()
		res, err := objectRankBaseline(pin, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := solve(ir.NewQuery("olap", "databases"))
	// Only the node reachable from BOTH keywords' base sets scores > 0.
	if res.Scores[3] <= 0 {
		t.Error("node 3 should be reachable from both keywords")
	}
	for _, v := range []int{0, 1, 2, 4} {
		if res.Scores[v] != 0 {
			t.Errorf("node %d = %v, want 0 (not reachable from both base sets)", v, res.Scores[v])
		}
	}
	// Iterations accumulate across the keywords' columns.
	olap, databases := solve(ir.NewQuery("olap")), solve(ir.NewQuery("databases"))
	if olap.Iterations <= 0 || databases.Iterations <= 0 || res.Iterations != olap.Iterations+databases.Iterations {
		t.Errorf("baseline iterations %d, want %d + %d", res.Iterations, olap.Iterations, databases.Iterations)
	}
	if !res.Converged || res.RatesVersion != pin.Version() || res.Generation != pin.Generation() {
		t.Errorf("result converged=%v at version %d generation %d, pin is at %d/%d", res.Converged, res.RatesVersion, res.Generation, pin.Version(), pin.Generation())
	}
	// The weighted single-keyword run differs from the baseline, which
	// treats base-set entries uniformly, yet both rank node 3 positively.
	or2, err := solveOne(pin, core.SolveSpec{Queries: []*ir.Query{ir.NewQuery("olap")}})
	if err != nil {
		t.Fatal(err)
	}
	if olap.Scores[3] <= 0 || or2.Scores[3] <= 0 {
		t.Error("both semantics should rank node 3 positively")
	}
}
