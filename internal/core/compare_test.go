package core

import (
	"math"
	"strings"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

func TestCompareDataCubeVsModeling(t *testing.T) {
	// Why does "Data Cube" (v7) outrank "Modeling Multidimensional
	// Databases" (v5) for [olap]? Citations: v7 receives three cites
	// flows, v5 one — the comparison must surface cites as the dominant
	// advantage.
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	cmp, err := e.Compare(res, f.ids["v7"], f.ids["v5"], ExplainOptions{Threshold: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Gap() <= 0 {
		t.Fatalf("v7 should outscore v5: gap = %v", cmp.Gap())
	}
	dom := cmp.DominantType()
	if !strings.Contains(dom.Name, "cites") {
		t.Errorf("dominant advantage = %q, want a cites type", dom.Name)
	}
	if dom.A <= dom.B {
		t.Errorf("dominant type should favor A: %v vs %v", dom.A, dom.B)
	}
	// Neither paper contains "olap", so base contributions are zero.
	if cmp.BaseA != 0 || cmp.BaseB != 0 {
		t.Errorf("base contributions = %v / %v, want 0", cmp.BaseA, cmp.BaseB)
	}
	if s := cmp.String(); !strings.Contains(s, "gap") {
		t.Errorf("String = %q", s)
	}
	if cmp.SubA == nil || cmp.SubB == nil {
		t.Error("underlying subgraphs missing")
	}
}

func TestCompareBaseSetContribution(t *testing.T) {
	// v1 is in the base set, v7 is not: v1's base contribution is
	// (1-d)·s(v1) > 0, v7's is 0.
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	cmp, err := e.Compare(res, f.ids["v1"], f.ids["v7"], ExplainOptions{Threshold: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.BaseA <= 0 {
		t.Errorf("v1 base contribution = %v, want > 0", cmp.BaseA)
	}
	if cmp.BaseB != 0 {
		t.Errorf("v7 base contribution = %v, want 0", cmp.BaseB)
	}
	// Base contribution is bounded by the full score.
	if cmp.BaseA > cmp.ScoreA+1e-12 {
		t.Errorf("base %v exceeds score %v", cmp.BaseA, cmp.ScoreA)
	}
	// The per-type inflows of A sum to (close to) score minus base: the
	// intake decomposition is complete for a radius-unlimited subgraph.
	sumA := 0.0
	for _, tf := range cmp.ByType {
		sumA += tf.A
	}
	if math.Abs(sumA+cmp.BaseA-cmp.ScoreA) > 0.01*cmp.ScoreA+1e-9 {
		t.Errorf("decomposition gap: flows %v + base %v vs score %v", sumA, cmp.BaseA, cmp.ScoreA)
	}
}

func TestCompareErrors(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	if _, err := e.Compare(res, graph.NodeID(999), f.ids["v1"], ExplainOptions{}); err == nil {
		t.Error("bad A should error")
	}
	if _, err := e.Compare(res, f.ids["v1"], graph.NodeID(-3), ExplainOptions{}); err == nil {
		t.Error("bad B should error")
	}
}

func TestCompareEmptyFlows(t *testing.T) {
	// Comparing two isolated base-set nodes: no type flows at all.
	e, ids := chainFixture(t)
	res := rankQ(e, ir.NewQuery("leak")) // base = {x}, which has no in-subgraph arcs
	cmp, err := e.Compare(res, ids["x"], ids["s"], ExplainOptions{Threshold: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if dom := cmp.DominantType(); dom.Name != "" && dom.A == 0 && dom.B == 0 {
		t.Errorf("unexpected dominant type on empty flows: %+v", dom)
	}
}
