package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// auditTarget picks the fixture node whose explaining subgraph is
// non-trivial for the query: the top-ranked olap paper v7.
func auditFixture(t *testing.T) (*fixture, *Pinned, *RankResult) {
	t.Helper()
	f := newFixture(t)
	pin := f.newEngine(t).Pin()
	res, err := solveMode(pin, ir.ParseQuery("olap"), ModeAuthority)
	if err != nil {
		t.Fatal(err)
	}
	return f, pin, res
}

// auditAt is AuditCtx at any budget: the default explaining subgraph of
// target, audited by AuditOf.
func auditAt(pin *Pinned, m Mode, res *RankResult, target graph.NodeID, budget int) (*Audit, error) {
	sg, err := pin.ExplainModeCtx(context.Background(), m, res, target, DefaultExplain())
	if err != nil {
		return nil, err
	}
	return AuditOf(sg, budget), nil
}

// TestAuditDeterministic: two audits of the same target under the same
// pinned (generation, ratesVersion) must be structurally identical —
// the in-memory half of the HTTP layer's byte-identity promise.
func TestAuditDeterministic(t *testing.T) {
	f, pin, res := auditFixture(t)
	opts := AuditOptions{}
	a1, err := pin.AuditCtx(context.Background(), ModeAuthority, res, f.ids["v7"], opts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := pin.AuditCtx(context.Background(), ModeAuthority, res, f.ids["v7"], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("two audits under one pin differ:\n%+v\nvs\n%+v", a1, a2)
	}
}

// TestAuditSensitivityIsFlowOverRate pins the derivative: each arc's
// sensitivity is exactly Flow/Rate, arcs arrive sensitivity-descending,
// and per-node sensitivity sums the node's out-arcs.
func TestAuditSensitivityIsFlowOverRate(t *testing.T) {
	f, pin, res := auditFixture(t)
	sg, err := pin.ExplainModeCtx(context.Background(), ModeAuthority, res, f.ids["v7"], DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	a := AuditOf(sg, 1000)
	if len(a.Arcs) == 0 || len(a.Nodes) == 0 {
		t.Fatalf("audit of v7 is empty: %d arcs, %d nodes", len(a.Arcs), len(a.Nodes))
	}
	if a.TotalArcs != len(a.Arcs) || a.TotalNodes != len(a.Nodes) {
		t.Errorf("totals (%d, %d) disagree with untruncated lists (%d, %d)",
			a.TotalArcs, a.TotalNodes, len(a.Arcs), len(a.Nodes))
	}
	for i, arc := range a.Arcs {
		if arc.Rate <= 0 {
			t.Fatalf("arc %d has non-positive rate %v", i, arc.Rate)
		}
		if math.Float64bits(arc.Sensitivity) != math.Float64bits(arc.Flow/arc.Rate) {
			t.Fatalf("arc %d sensitivity %v != Flow/Rate %v", i, arc.Sensitivity, arc.Flow/arc.Rate)
		}
		if i > 0 && a.Arcs[i-1].Sensitivity < arc.Sensitivity {
			t.Fatalf("arcs not sensitivity-descending at %d", i)
		}
	}
	// The subgraph's arcs in row order, the order the explain pass sums
	// each node's sensitivity in, so the sums match bit for bit.
	byNode := map[graph.NodeID]float64{}
	for _, arc := range sg.FlowArcs() {
		byNode[arc.From] += arc.Flow / arc.Rate
	}
	for i, n := range a.Nodes {
		if math.Float64bits(byNode[n.Node]) != math.Float64bits(n.Sensitivity) {
			t.Errorf("node %d sensitivity %v != sum of its arcs %v", n.Node, n.Sensitivity, byNode[n.Node])
		}
		if i > 0 && a.Nodes[i-1].Sensitivity < n.Sensitivity {
			t.Fatalf("nodes not sensitivity-descending at %d", i)
		}
	}
	if a.Score <= 0 {
		t.Errorf("explained score %v, want > 0", a.Score)
	}
}

// TestAuditBudgetTruncates: a budget smaller than the subgraph clips
// both lists to exactly the budget and keeps the sensitivity-top prefix
// of the unclipped ranking; totals still report the full subgraph.
func TestAuditBudgetTruncates(t *testing.T) {
	f, pin, res := auditFixture(t)
	full, err := auditAt(pin, ModeAuthority, res, f.ids["v7"], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalArcs < 3 {
		t.Fatalf("fixture subgraph too small (%d arcs) for a truncation test", full.TotalArcs)
	}
	budget := 2
	clipped, err := auditAt(pin, ModeAuthority, res, f.ids["v7"], budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(clipped.Arcs) != budget {
		t.Fatalf("budget %d returned %d arcs", budget, len(clipped.Arcs))
	}
	if clipped.TotalArcs != full.TotalArcs || clipped.TotalNodes != full.TotalNodes {
		t.Error("truncation must not change the reported subgraph totals")
	}
	if !reflect.DeepEqual(clipped.Arcs, full.Arcs[:budget]) {
		t.Error("clipped arcs are not the top-budget prefix of the full ranking")
	}

	// AuditCtx keeps the default budget.
	def, err := pin.AuditCtx(context.Background(), ModeAuthority, res, f.ids["v7"], AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Budget != DefaultAuditBudget {
		t.Errorf("zero budget resolved to %d, want DefaultAuditBudget", def.Budget)
	}
}

// TestAuditRejectsCombinedAndHonorsDeadline: "combined" is no ranking
// direction, so there is no flow system to audit it in.
func TestAuditRejectsCombinedAndHonorsDeadline(t *testing.T) {
	f, pin, res := auditFixture(t)
	if _, err := pin.AuditCtx(context.Background(), Mode("combined"), res, f.ids["v7"], AuditOptions{}); err == nil {
		t.Error("an audit in an unknown mode must fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pin.AuditCtx(ctx, ModeAuthority, res, f.ids["v7"], AuditOptions{}); err == nil {
		t.Error("cancelled-context audit must fail")
	}
}

// TestAuditHubMode: audits of hub rankings run over the reversed view
// and are deterministic too.
func TestAuditHubMode(t *testing.T) {
	f := newFixture(t)
	pin := f.newEngine(t).Pin()
	res, err := solveMode(pin, ir.ParseQuery("olap"), ModeHub)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := pin.AuditCtx(context.Background(), ModeHub, res, f.ids["v4"], AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := pin.AuditCtx(context.Background(), ModeHub, res, f.ids["v4"], AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("hub-mode audit is not deterministic")
	}
	if a1.Score <= 0 {
		t.Errorf("hub audit of v4 explained no flow (score %v)", a1.Score)
	}
}

// tiedSubgraph builds a synthetic subgraph of n arcs over nodes 0..n-1,
// grouped by ascending source as the explain kernel emits them, whose
// flows and sensitivities are each drawn from three values: nearly every
// comparison a selection makes is a tie on its primary key. Every node
// is the head of one arc. Unit rates, damping and scores make an arc's
// Rate its InvDeg f/s and its Flow h(To)·Rate with h(To) = s. Powers of
// two keep every product, Flow/Rate and the sums the subgraph's own
// Equation 6 pass makes exact.
func tiedSubgraph(rng *rand.Rand, n int) *Subgraph {
	flows, sens := []float64{1, 2, 4}, []float64{0.5, 1, 2}
	sg := &Subgraph{
		Nodes:    make([]graph.NodeID, n),
		damping:  1,
		alpha:    []float64{1, 1},
		rowStart: make([]int32, n+1),
		score:    make([]float64, n),
		h:        make([]float64, n),
		dist:     make([]int32, n),
	}
	for v := range sg.Nodes {
		sg.Nodes[v], sg.score[v] = graph.NodeID(v), 1
	}
	from := 0
	for k, to := range rng.Perm(n) {
		if k > 0 && rng.Intn(3) == 0 {
			from++
		}
		f, s := flows[rng.Intn(3)], sens[rng.Intn(3)]
		sg.Arcs = append(sg.Arcs, ArcRef{Head: int32(to), Type: graph.TransferTypeID(rng.Intn(2)), InvDeg: float32(f / s)})
		sg.h[to] = s
		sg.rowStart[from+1] = int32(k + 1)
	}
	for v := 1; v <= n; v++ { // the nodes past the last source have empty rows
		sg.rowStart[v] = max(sg.rowStart[v], sg.rowStart[v-1])
	}
	return sg
}

// fullOrders sorts everything the two selections choose from: the arcs
// under CompareFlow, and the audit's arcs and per-source nodes under
// the audit order.
func fullOrders(sg *Subgraph) (flow []FlowArc, arcs []AuditArc, nodes []AuditNode) {
	flow = sg.FlowArcs()
	slices.SortFunc(flow, CompareFlow)
	arcs = auditArcs(sg)
	for _, a := range arcs {
		if len(nodes) == 0 || nodes[len(nodes)-1].Node != a.From {
			nodes = append(nodes, AuditNode{Node: a.From})
		}
		nodes[len(nodes)-1].Sensitivity += a.Sensitivity
		nodes[len(nodes)-1].Flow += a.Flow
	}
	slices.SortFunc(arcs, compareAuditArcs)
	slices.SortFunc(nodes, compareAuditNodes)
	return flow, arcs, nodes
}

// auditArcs materializes every arc's audit entry, in arc order.
func auditArcs(sg *Subgraph) []AuditArc {
	out := make([]AuditArc, len(sg.Arcs))
	for i, fa := range sg.FlowArcs() {
		out[i] = AuditArc{From: fa.From, To: fa.To, Type: fa.Type, Rate: fa.Rate, Flow: fa.Flow, Sensitivity: fa.Flow / fa.Rate}
	}
	return out
}

func prefix[T any](s []T, budget int) []T { return s[:min(budget, len(s))] }

// TestTopArcsAuditOfTies: under ties on the primary key, TopArcs and
// AuditOf, whose row skips read the selection's bar, still return the
// budget-long prefix of the full sort, for every budget from 1 to one
// past the subgraph. rank's TestTopBudgetTies checks the selection
// itself under every caller's order.
func TestTopArcsAuditOfTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		sg := tiedSubgraph(rng, 1+rng.Intn(80))
		flow, arcs, nodes := fullOrders(sg)
		for budget := 1; budget <= len(sg.Arcs)+1; budget++ {
			if got := sg.TopArcs(budget); !slices.Equal(got, prefix(flow, budget)) {
				t.Fatalf("trial %d budget %d: TopArcs is not the prefix of the full sort:\n%v\n%v", trial, budget, got, prefix(flow, budget))
			}
			a := AuditOf(sg, budget)
			if !slices.Equal(a.Arcs, prefix(arcs, budget)) {
				t.Fatalf("trial %d budget %d: AuditOf arcs are not the prefix of the full sort", trial, budget)
			}
			if !slices.Equal(a.Nodes, prefix(nodes, budget)) || a.TotalNodes != len(nodes) {
				t.Fatalf("trial %d budget %d: AuditOf nodes are not the prefix of the full sort", trial, budget)
			}
		}
	}
}
