package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

func TestAdjustRatesExample2(t *testing.T) {
	// Reproduces Example 2's structure-based arithmetic: starting from
	// the Figure 3 rates [PP,Pcited,PA,AP,CY,YC,YP,PY] =
	// [0.7,0.0,0.2,0.2,0.3,0.3,0.3,0.1] with normalized flow factors
	// F̂(PA)=1.0 and F̂(PP)=0.393 (others 0) and C_f = 0.5, the
	// reformulated rates are [0.67,0.0,0.24,0.16,0.24,0.24,0.24,0.08]:
	// PA increases and AP decreases, and every no-flow type shrinks by
	// the common global factor.
	s, _, edges := newDBLPSchema()
	old := figure3Rates(s, edges)
	flows := make([]float64, s.NumTransferTypes())
	flows[graph.TransferType(edges["by"], graph.Forward)] = 1.0      // PA
	flows[graph.TransferType(edges["cites"], graph.Forward)] = 0.393 // PP
	newRates := adjustRates(old, flows, 0.5)

	get := func(role string, dir graph.Direction) float64 {
		return newRates.Rate(graph.TransferType(edges[role], dir))
	}
	want := map[string]float64{
		"PP":     0.68, // paper rounds to 0.67
		"Pcited": 0.0,
		"PA":     0.24,
		"AP":     0.16,
		"CY":     0.24,
		"YC":     0.24,
		"YP":     0.24,
		"PY":     0.08,
	}
	got := map[string]float64{
		"PP":     get("cites", graph.Forward),
		"Pcited": get("cites", graph.Backward),
		"PA":     get("by", graph.Forward),
		"AP":     get("by", graph.Backward),
		"CY":     get("hasInstance", graph.Forward),
		"YC":     get("hasInstance", graph.Backward),
		"YP":     get("contains", graph.Forward),
		"PY":     get("contains", graph.Backward),
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 0.01 {
			t.Errorf("rate %s = %.4f, want ~%.2f", k, got[k], w)
		}
	}
	if err := newRates.Validate(); err != nil {
		t.Errorf("reformulated rates invalid: %v", err)
	}
	// PA grew relative to its old value after accounting for the global
	// rescale; AP shrank.
	if got["PA"] <= got["AP"] {
		t.Errorf("PA (%.3f) should exceed AP (%.3f) after reformulation", got["PA"], got["AP"])
	}
}

func TestAdjustRatesClampsSingleRate(t *testing.T) {
	// A rate boosted above 1 triggers the step-3 max normalization.
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	old := graph.NewRates(s)
	old.Set(cites, graph.Forward, 0.9)
	flows := make([]float64, s.NumTransferTypes())
	flows[graph.TransferType(cites, graph.Forward)] = 5
	got := adjustRates(old, flows, 1.0) // boost: 0.9*2 = 1.8 -> clamp
	if r := got.Rate(graph.TransferType(cites, graph.Forward)); r > 1+1e-12 {
		t.Errorf("rate = %v, want <= 1", r)
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAdjustRatesNoFlowsIsNoOpUpToValidation(t *testing.T) {
	s, _, edges := newDBLPSchema()
	old := figure3Rates(s, edges)
	flows := make([]float64, s.NumTransferTypes())
	got := adjustRates(old, flows, 0.5)
	for i, a := range old.Vector() {
		if math.Abs(got.Vector()[i]-a) > 1e-12 {
			t.Errorf("rate %d changed with zero flows: %v -> %v", i, a, got.Vector()[i])
		}
	}
}

func TestReformulateRequiresFeedback(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	if _, err := reformulate(e, ir.NewQuery("olap"), nil, nil, StructureOnly()); err == nil {
		t.Error("Reformulate should require feedback objects")
	}
}

// explainFeedback runs the standard feedback flow: rank, pick target,
// explain.
func explainFeedback(t *testing.T, e *Engine, q *ir.Query, target graph.NodeID) (*RankResult, *Subgraph) {
	t.Helper()
	res := rankQ(e, q)
	sg, err := explain(e, res, target, ExplainOptions{Radius: 3, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	return res, sg
}

// TestExample2ContentExpansion mirrors Example 2's content-based
// reformulation: with feedback object v4 ("Range Queries in OLAP Data
// Cubes"), the expansion is dominated by the feedback object's own
// terms (olap, cubes, range, queries) thanks to the C_d decay, with
// terms from authority-transferring neighbors (modeling,
// multidimensional) weighted much lower.
func TestExample2ContentExpansion(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	_, sg := explainFeedback(t, e, q, f.ids["v4"])
	ref, err := reformulate(e, q, []*Subgraph{sg}, nil, ReformulateOptions{Ce: 0.5, Cd: 0.5, TopTerms: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Expansion) == 0 {
		t.Fatal("no expansion terms")
	}
	weights := map[string]float64{}
	for _, wt := range ref.Expansion {
		weights[wt.Term] = wt.Weight
	}
	// Terms from the feedback object itself must be present.
	for _, term := range []string{"range", "queries", "cubes"} {
		if weights[term] == 0 {
			t.Errorf("feedback-object term %q missing from expansion (%v)", term, ref.Expansion)
		}
	}
	// A term occurring only in a distance-1 neighbor with little
	// authority ("modeling", from v5) must weigh less than a term of
	// the feedback object itself ("range"), per the C_d decay and
	// flow weighting of Equation 11.
	if weights["modeling"] >= weights["range"] {
		t.Errorf("low-flow neighbor term outweighs target term: %v", ref.Expansion)
	}
	// A term occurring in the target AND in authority-transferring
	// neighbors ("agrawal": v4, v5, v6) accumulates more weight than a
	// target-only term — the summation semantics of Equation 11.
	if weights["agrawal"] <= weights["range"] {
		t.Errorf("multi-node term should outweigh single-node term: %v", ref.Expansion)
	}
	// The reformulated query keeps the original term and gains weight
	// on expansion terms scaled by C_e and the a_q/max normalization:
	// the strongest expansion term gets exactly C_e * a_q = 0.5 * 1.
	if termWeight(ref.Query, "olap") < 1 {
		t.Errorf("original term lost weight: %v", ref.Query)
	}
	maxExp := 0.0
	for _, wt := range ref.Expansion {
		if wt.Weight > maxExp {
			maxExp = wt.Weight
		}
	}
	if math.Abs(maxExp-1.0) > 1e-9 { // normalized so max == a_q == 1
		t.Errorf("max normalized expansion weight = %v, want 1", maxExp)
	}
	// Stopwords never enter the query.
	for term := range weights {
		if ir.IsStopword(term) {
			t.Errorf("stopword %q in expansion", term)
		}
	}
}

func TestContentOnlyLeavesRatesUnchanged(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	_, sg := explainFeedback(t, e, q, f.ids["v4"])
	ref, err := reformulate(e, q, []*Subgraph{sg}, nil, ContentOnly())
	if err != nil {
		t.Fatal(err)
	}
	oldVec := e.Pin().Rates().Vector()
	for i, a := range ref.Rates.Vector() {
		if a != oldVec[i] {
			t.Errorf("rate %d changed under content-only reformulation", i)
		}
	}
	if len(ref.Expansion) == 0 {
		t.Error("content-only reformulation should expand the query")
	}
}

func TestStructureOnlyLeavesQueryUnchanged(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	_, sg := explainFeedback(t, e, q, f.ids["v4"])
	ref, err := reformulate(e, q, []*Subgraph{sg}, nil, StructureOnly())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Expansion) != 0 {
		t.Errorf("structure-only reformulation expanded the query: %v", ref.Expansion)
	}
	if ref.Query.Len() != q.Len() || termWeight(ref.Query, "olap") != 1 {
		t.Errorf("query changed: %v", ref.Query)
	}
	if err := ref.Rates.Validate(); err != nil {
		t.Errorf("reformulated rates invalid: %v", err)
	}
	// Types that carried flow in the subgraph were boosted relative to
	// types that carried none (before the common rescale): the ratio
	// new/old must be strictly larger for a flow-carrying type.
	oldVec := e.Pin().Rates().Vector()
	newVec := ref.Rates.Vector()
	var flowRatio, noFlowRatio float64
	for i := range oldVec {
		if oldVec[i] == 0 {
			continue
		}
		r := newVec[i] / oldVec[i]
		if ref.FlowByType[i] > 0 && r > flowRatio {
			flowRatio = r
		}
		if ref.FlowByType[i] == 0 && noFlowRatio == 0 {
			noFlowRatio = r
		}
	}
	if flowRatio <= noFlowRatio {
		t.Errorf("flow-carrying type ratio %v should exceed no-flow ratio %v", flowRatio, noFlowRatio)
	}
}

func TestMultipleFeedbackObjectsSum(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	res := rankQ(e, q)
	sg4, err := explain(e, res, f.ids["v4"], ExplainOptions{Radius: 3, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sg1, err := explain(e, res, f.ids["v1"], ExplainOptions{Radius: 3, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	refBoth, err := reformulate(e, q, []*Subgraph{sg4, sg1}, nil, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	ref4, err := reformulate(e, q, []*Subgraph{sg4}, nil, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	// Equation 15: the combined F factors are the per-object sums.
	ref1, err := reformulate(e, q, []*Subgraph{sg1}, nil, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	for i := range refBoth.FlowByType {
		want := ref4.FlowByType[i] + ref1.FlowByType[i]
		if math.Abs(refBoth.FlowByType[i]-want) > 1e-12 {
			t.Errorf("F[%d] = %v, want sum %v", i, refBoth.FlowByType[i], want)
		}
	}
	if err := refBoth.Rates.Validate(); err != nil {
		t.Error(err)
	}
	if len(refBoth.Expansion) == 0 {
		t.Error("combined reformulation should expand the query")
	}
}

func TestReformulationIterationImprovesFeedbackObject(t *testing.T) {
	// End-to-end feedback loop on the fixture: after reformulating
	// toward feedback object v7 (the citation hub), the citation edge
	// type should keep or gain relative strength, and re-ranking should
	// keep v7 on top.
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	res := rankQ(e, q)
	sg, err := explain(e, res, f.ids["v7"], ExplainOptions{Radius: 3, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reformulate(e, q, []*Subgraph{sg}, nil, StructureOnly())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetRates(ref.Rates); err != nil {
		t.Fatal(err)
	}
	res2 := rankFrom(e, ref.Query, res.Scores)
	if top := res2.TopK(1); top[0].Node != f.ids["v7"] {
		t.Errorf("v7 lost the top rank after feedback on v7: %v", top)
	}
}

func TestReformulateOptionPresets(t *testing.T) {
	if o := ContentOnly(); o.Ce == 0 || o.Cf != 0 {
		t.Errorf("ContentOnly = %+v", o)
	}
	if o := StructureOnly(); o.Ce != 0 || o.Cf == 0 {
		t.Errorf("StructureOnly = %+v", o)
	}
	if o := ContentAndStructure(); o.Ce == 0 || o.Cf == 0 {
		t.Errorf("ContentAndStructure = %+v", o)
	}
	def := ReformulateOptions{}.withDefaults()
	if def.Cd != 0.5 || def.TopTerms != 5 {
		t.Errorf("defaults = %+v", def)
	}
}

// TestPropertyAdjustRates: for arbitrary non-negative flow factors and
// C_f values in [0,1], the normalization pipeline always yields a valid
// rate assignment (non-negative, each rate <= 1, outgoing sums <= 1)
// that preserves per-node relative ORDER of rates whose flows tie.
func TestPropertyAdjustRates(t *testing.T) {
	s, _, edges := newDBLPSchema()
	base := figure3Rates(s, edges)
	prop := func(raw []float64, cfRaw uint8) bool {
		flows := make([]float64, s.NumTransferTypes())
		for i := range flows {
			if i < len(raw) {
				f := raw[i]
				if f < 0 {
					f = -f
				}
				if f > 1e9 || f != f { // clamp huge, drop NaN
					f = 1
				}
				flows[i] = f
			}
		}
		cf := float64(cfRaw%101) / 100
		got := adjustRates(base, flows, cf)
		if err := got.Validate(); err != nil {
			return false
		}
		for _, a := range got.Vector() {
			if a < 0 || a > 1+1e-12 {
				return false
			}
		}
		// Zero-rate types stay zero (no flow can resurrect a disabled
		// edge direction: a'(e) multiplies a(e)).
		if got.Rate(graph.TransferType(edges["cites"], graph.Backward)) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReformulateWeighted(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	res := rankQ(e, q)
	sg4, err := explain(e, res, f.ids["v4"], ExplainOptions{Radius: 3, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sg1, err := explain(e, res, f.ids["v1"], ExplainOptions{Radius: 3, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	subs := []*Subgraph{sg4, sg1}

	// Uniform weights of 1 match plain Reformulate exactly.
	plain, err := reformulate(e, q, subs, nil, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	ones, err := reformulate(e, q, subs, []float64{1, 1}, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	pv, ov := plain.Rates.Vector(), ones.Rates.Vector()
	for i := range pv {
		if pv[i] != ov[i] {
			t.Fatalf("weight-1 rates differ at %d", i)
		}
	}
	// Zeroing one object's weight equals dropping it.
	zeroed, err := reformulate(e, q, subs, []float64{1, 0}, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	solo, err := reformulate(e, q, subs[:1], nil, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	zv, sv := zeroed.Rates.Vector(), solo.Rates.Vector()
	for i := range zv {
		if math.Abs(zv[i]-sv[i]) > 1e-12 {
			t.Fatalf("zero-weight rates differ from dropped-object rates at %d", i)
		}
	}
	// Scaling all weights by a common factor leaves rates unchanged
	// (the Equation 13 normalization divides it out).
	doubled, err := reformulate(e, q, subs, []float64{2, 2}, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	dv := doubled.Rates.Vector()
	for i := range pv {
		if math.Abs(dv[i]-pv[i]) > 1e-12 {
			t.Fatalf("scaled weights changed rates at %d", i)
		}
	}
	// Errors.
	if _, err := reformulate(e, q, subs, []float64{1}, StructureOnly()); err == nil {
		t.Error("mismatched weight count should error")
	}
	if _, err := reformulate(e, q, subs, []float64{1, -1}, StructureOnly()); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := reformulate(e, q, subs, []float64{1, math.NaN()}, StructureOnly()); err == nil {
		t.Error("NaN weight should error")
	}
}

// termWeight is q's weight of term t, 0 when t is not a query term.
func termWeight(q *ir.Query, t string) float64 {
	if i := slices.Index(q.Terms(), t); i >= 0 {
		return q.Weights()[i]
	}
	return 0
}
