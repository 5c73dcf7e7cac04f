package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// dblpSchema builds the Figure 2 schema of the paper: Paper, Conference,
// Year, Author with cites, hasInstance (Conference->Year), contains
// (Year->Paper) and by (Paper->Author) edges.
func dblpSchema(t testing.TB) (*Schema, map[string]TypeID, map[string]EdgeTypeID) {
	t.Helper()
	s := NewSchema()
	types := map[string]TypeID{
		"Paper":      s.AddNodeType("Paper"),
		"Conference": s.AddNodeType("Conference"),
		"Year":       s.AddNodeType("Year"),
		"Author":     s.AddNodeType("Author"),
	}
	edges := map[string]EdgeTypeID{
		"cites":       s.MustAddEdgeType("cites", types["Paper"], types["Paper"]),
		"hasInstance": s.MustAddEdgeType("hasInstance", types["Conference"], types["Year"]),
		"contains":    s.MustAddEdgeType("contains", types["Year"], types["Paper"]),
		"by":          s.MustAddEdgeType("by", types["Paper"], types["Author"]),
	}
	return s, types, edges
}

func TestSchemaBasics(t *testing.T) {
	s, types, edges := dblpSchema(t)
	if got := s.NumNodeTypes(); got != 4 {
		t.Fatalf("NumNodeTypes = %d, want 4", got)
	}
	if got := s.NumEdgeTypes(); got != 4 {
		t.Fatalf("NumEdgeTypes = %d, want 4", got)
	}
	if got := s.NumTransferTypes(); got != 8 {
		t.Fatalf("NumTransferTypes = %d, want 8", got)
	}
	if s.TypeName(types["Paper"]) != "Paper" {
		t.Errorf("TypeName(Paper) = %q", s.TypeName(types["Paper"]))
	}
	if id, ok := s.TypeByName("Author"); !ok || id != types["Author"] {
		t.Errorf("TypeByName(Author) = %d, %v", id, ok)
	}
	if _, ok := s.TypeByName("Nope"); ok {
		t.Error("TypeByName(Nope) should not exist")
	}
	if id, ok := s.EdgeTypeByRole("cites"); !ok || id != edges["cites"] {
		t.Errorf("EdgeTypeByRole(cites) = %d, %v", id, ok)
	}
	// Duplicate registration returns the same IDs.
	if s.AddNodeType("Paper") != types["Paper"] {
		t.Error("duplicate AddNodeType returned a new ID")
	}
	if s.MustAddEdgeType("cites", types["Paper"], types["Paper"]) != edges["cites"] {
		t.Error("duplicate AddEdgeType returned a new ID")
	}
}

func TestSchemaAddEdgeTypeErrors(t *testing.T) {
	s := NewSchema()
	p := s.AddNodeType("Paper")
	if _, err := s.AddEdgeType("cites", p, TypeID(42)); err == nil {
		t.Error("AddEdgeType with unknown target type should fail")
	}
	if _, err := s.AddEdgeType("cites", TypeID(-1), p); err == nil {
		t.Error("AddEdgeType with unknown source type should fail")
	}
}

func TestTransferTypeRoundTrip(t *testing.T) {
	for e := EdgeTypeID(0); e < 100; e++ {
		for _, dir := range []Direction{Forward, Backward} {
			tt := TransferType(e, dir)
			if tt.EdgeType() != e {
				t.Fatalf("EdgeType(%d,%v) = %d", e, dir, tt.EdgeType())
			}
			if tt.Dir() != dir {
				t.Fatalf("Dir(%d,%v) = %v", e, dir, tt.Dir())
			}
		}
	}
}

func TestTransferTypeNames(t *testing.T) {
	s, _, edges := dblpSchema(t)
	fwd := s.TransferTypeName(TransferType(edges["cites"], Forward))
	if !strings.Contains(fwd, "->") || !strings.Contains(fwd, "cites") {
		t.Errorf("forward name = %q", fwd)
	}
	bwd := s.TransferTypeName(TransferType(edges["cites"], Backward))
	if !strings.Contains(bwd, "<-") {
		t.Errorf("backward name = %q", bwd)
	}
}

func TestTransferTypesFrom(t *testing.T) {
	s, types, edges := dblpSchema(t)
	// Paper has outgoing transfer types: cites fwd, cites bwd (cited),
	// contains bwd, by fwd.
	got := s.TransferTypesFrom(types["Paper"])
	want := map[TransferTypeID]bool{
		TransferType(edges["cites"], Forward):     true,
		TransferType(edges["cites"], Backward):    true,
		TransferType(edges["contains"], Backward): true,
		TransferType(edges["by"], Forward):        true,
	}
	if len(got) != len(want) {
		t.Fatalf("TransferTypesFrom(Paper) = %v, want %d entries", got, len(want))
	}
	for _, tt := range got {
		if !want[tt] {
			t.Errorf("unexpected transfer type %s", s.TransferTypeName(tt))
		}
	}
}

// figure1Graph builds the 7-node DBLP subgraph of Figures 1/5/6.
// Node IDs follow the paper's v1..v7 numbering (0-based here).
func figure1Graph(t testing.TB) (*Graph, map[string]NodeID) {
	t.Helper()
	s, types, edges := dblpSchema(t)
	b := NewBuilder(s)
	v1 := b.AddNode(types["Paper"], Attr{"Title", "Index Selection for OLAP."}, Attr{"Authors", "H. Gupta, V. Harinarayan, A. Rajaraman, J. Ullman"}, Attr{"Year", "ICDE 1997"})
	v2 := b.AddNode(types["Conference"], Attr{"Name", "ICDE"})
	v3 := b.AddNode(types["Year"], Attr{"Name", "ICDE"}, Attr{"Year", "1997"}, Attr{"Location", "Birmingham"})
	v4 := b.AddNode(types["Paper"], Attr{"Title", "Range Queries in OLAP Data Cubes."}, Attr{"Authors", "C. Ho, R. Agrawal, N. Megiddo, R. Srikant"}, Attr{"Year", "SIGMOD 1997"})
	v5 := b.AddNode(types["Paper"], Attr{"Title", "Modeling Multidimensional Databases."}, Attr{"Authors", "R. Agrawal, A. Gupta, S. Sarawagi"}, Attr{"Year", "ICDE 1997"})
	v6 := b.AddNode(types["Author"], Attr{"Name", "R. Agrawal"})
	v7 := b.AddNode(types["Paper"], Attr{"Title", "Data Cube: A Relational Aggregation Operator Generalizing Group-By, Cross-Tab, and Sub-Total."}, Attr{"Authors", "J. Gray, A. Bosworth, A. Layman, H. Pirahesh"}, Attr{"Year", "ICDE 1996"})

	b.AddEdge(v2, v3, edges["hasInstance"])
	b.AddEdge(v3, v1, edges["contains"])
	b.AddEdge(v3, v5, edges["contains"])
	b.AddEdge(v1, v7, edges["cites"])
	b.AddEdge(v4, v7, edges["cites"])
	b.AddEdge(v5, v7, edges["cites"])
	b.AddEdge(v4, v5, edges["cites"])
	b.AddEdge(v4, v6, edges["by"])
	b.AddEdge(v5, v6, edges["by"])

	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, map[string]NodeID{
		"v1": v1, "v2": v2, "v3": v3, "v4": v4, "v5": v5, "v6": v6, "v7": v7,
	}
}

func TestBuildFigure1(t *testing.T) {
	g, ids := figure1Graph(t)
	if g.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 9 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.NumArcs() != 18 {
		t.Fatalf("NumArcs = %d", g.NumArcs())
	}
	if g.LabelName(ids["v6"]) != "Author" {
		t.Errorf("v6 label = %q", g.LabelName(ids["v6"]))
	}
	if got := g.Attr(ids["v3"], "Location"); got != "Birmingham" {
		t.Errorf("v3 Location = %q", got)
	}
	if got := g.Attr(ids["v3"], "Missing"); got != "" {
		t.Errorf("missing attr = %q", got)
	}
	if txt := g.Text(ids["v3"]); !strings.Contains(txt, "ICDE") || !strings.Contains(txt, "Birmingham") {
		t.Errorf("v3 text = %q", txt)
	}
	if d := g.Display(ids["v6"]); !strings.Contains(d, "Author") || !strings.Contains(d, "R. Agrawal") {
		t.Errorf("Display = %q", d)
	}
}

func TestOutDegAndInvDeg(t *testing.T) {
	g, ids := figure1Graph(t)
	s := g.Schema()
	cites, _ := s.EdgeTypeByRole("cites")
	citesFwd := TransferType(cites, Forward)
	citesBwd := TransferType(cites, Backward)

	// v4 cites two papers (v7 and v5).
	if d := g.OutDeg(ids["v4"], citesFwd); d != 2 {
		t.Errorf("OutDeg(v4, cites fwd) = %d, want 2", d)
	}
	// v7 is cited by three papers, so it has three backward cites arcs.
	if d := g.OutDeg(ids["v7"], citesBwd); d != 3 {
		t.Errorf("OutDeg(v7, cites bwd) = %d, want 3", d)
	}
	// InvDeg on v4's forward cites arcs must be 1/2.
	for _, a := range g.OutArcs(ids["v4"]) {
		if a.Type == citesFwd && math.Abs(float64(a.InvDeg)-0.5) > 1e-6 {
			t.Errorf("InvDeg(v4 cites) = %v, want 0.5", a.InvDeg)
		}
	}
}

func TestEquation1ArcWeights(t *testing.T) {
	g, ids := figure1Graph(t)
	s := g.Schema()
	rates := NewRates(s)
	cites, _ := s.EdgeTypeByRole("cites")
	if err := rates.Set(cites, Forward, 0.7); err != nil {
		t.Fatal(err)
	}
	citesFwd := TransferType(cites, Forward)
	// v4 has OutDeg(v4, cites fwd)=2 so each arc carries 0.7/2 = 0.35.
	for _, a := range g.OutArcs(ids["v4"]) {
		if a.Type != citesFwd {
			continue
		}
		if w := rates.Rate(a.Type) * float64(a.InvDeg); math.Abs(w-0.35) > 1e-6 {
			t.Errorf("a(v4 cites) = %v, want 0.35", w)
		}
	}
	// v1 has OutDeg 1, so weight = 0.7.
	for _, a := range g.OutArcs(ids["v1"]) {
		if a.Type != citesFwd {
			continue
		}
		if w := rates.Rate(a.Type) * float64(a.InvDeg); math.Abs(w-0.7) > 1e-6 {
			t.Errorf("a(v1 cites) = %v, want 0.7", w)
		}
	}
}

func TestInArcsMirrorOutArcs(t *testing.T) {
	g, _ := figure1Graph(t)
	type key struct {
		from, to NodeID
		tt       TransferTypeID
	}
	fwd := map[key]float32{}
	for u := 0; u < g.NumNodes(); u++ {
		for _, a := range g.OutArcs(NodeID(u)) {
			fwd[key{NodeID(u), a.To, a.Type}] = a.InvDeg
		}
	}
	count := 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.InArcs(NodeID(v)) {
			count++
			inv, ok := fwd[key{a.To, NodeID(v), a.Type}]
			if !ok {
				t.Fatalf("reverse arc %d<-%d type %d missing from forward CSR", v, a.To, a.Type)
			}
			if inv != a.InvDeg {
				t.Errorf("InvDeg mismatch on %d<-%d: %v vs %v", v, a.To, a.InvDeg, inv)
			}
		}
	}
	if count != g.NumArcs() {
		t.Errorf("reverse CSR has %d arcs, want %d", count, g.NumArcs())
	}
}

func TestBuilderConformanceErrors(t *testing.T) {
	s, types, edges := dblpSchema(t)

	b := NewBuilder(s)
	p := b.AddNode(types["Paper"])
	a := b.AddNode(types["Author"])
	b.AddEdge(a, p, edges["cites"]) // Author cannot cite.
	if _, err := b.Build(); err == nil {
		t.Error("Build should reject non-conforming edge endpoints")
	}

	b = NewBuilder(s)
	p = b.AddNode(types["Paper"])
	b.AddEdge(p, NodeID(99), edges["cites"])
	if _, err := b.Build(); err == nil {
		t.Error("Build should reject unknown target node")
	}

	b = NewBuilder(s)
	b.AddNode(TypeID(77))
	if _, err := b.Build(); err == nil {
		t.Error("Build should reject unknown label")
	}

	b = NewBuilder(s)
	p = b.AddNode(types["Paper"])
	b.AddEdge(p, p, EdgeTypeID(99))
	if _, err := b.Build(); err == nil {
		t.Error("Build should reject unknown edge type")
	}
}

func TestNodesOfType(t *testing.T) {
	g, _ := figure1Graph(t)
	papers, _ := g.Schema().TypeByName("Paper")
	if got := g.NodesOfType(papers); len(got) != 4 {
		t.Errorf("NodesOfType(Paper) = %v", got)
	}
	if g.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
}

func TestRatesBasics(t *testing.T) {
	s, types, edges := dblpSchema(t)
	r := UniformRates(s, 0.3)
	if got := r.Rate(TransferType(edges["cites"], Forward)); got != 0.3 {
		t.Fatalf("uniform rate = %v", got)
	}
	if err := r.SetRate(TransferType(edges["cites"], Backward), -1); err == nil {
		t.Error("negative rate should be rejected")
	}
	if err := r.SetRate(TransferType(edges["cites"], Backward), math.NaN()); err == nil {
		t.Error("NaN rate should be rejected")
	}
	// Paper has 4 outgoing transfer types at 0.3 each -> sum 1.2 > 1.
	if err := r.Validate(); err == nil {
		t.Error("Validate should reject outgoing sum > 1")
	}
	r.NormalizeOutgoing()
	if err := r.Validate(); err != nil {
		t.Errorf("Validate after NormalizeOutgoing: %v", err)
	}
	if sum := r.OutgoingSum(types["Paper"]); math.Abs(sum-1) > 1e-9 {
		t.Errorf("Paper outgoing sum = %v, want 1", sum)
	}

	cp := r.Clone()
	cp.SetRate(0, 0.9)
	if r.Rate(0) == 0.9 {
		t.Error("Clone is not a deep copy")
	}

	vec := r.Vector()
	if len(vec) != s.NumTransferTypes() {
		t.Fatalf("Vector len = %d", len(vec))
	}
	r2 := NewRates(s)
	if err := r2.SetVector(vec); err != nil {
		t.Fatal(err)
	}
	if r2.Rate(3) != r.Rate(3) {
		t.Error("SetVector round trip failed")
	}
	if err := r2.SetVector(vec[:2]); err == nil {
		t.Error("SetVector with wrong length should fail")
	}
	if r.String() == "" {
		t.Error("String should render non-zero rates")
	}
}

func TestPaperRatesFigure3(t *testing.T) {
	// The Figure 3 rate assignment: cites 0.7 / cited 0.0, Paper->Author
	// 0.2 / Author->Paper 0.2, Conference<->Year 0.3/0.3, Year->Paper
	// 0.3 / Paper->Year 0.1. Each schema node's outgoing rates must sum
	// to <= 1.
	s, _, edges := dblpSchema(t)
	r := NewRates(s)
	r.Set(edges["cites"], Forward, 0.7)
	r.Set(edges["cites"], Backward, 0.0)
	r.Set(edges["by"], Forward, 0.2)
	r.Set(edges["by"], Backward, 0.2)
	r.Set(edges["hasInstance"], Forward, 0.3)
	r.Set(edges["hasInstance"], Backward, 0.3)
	r.Set(edges["contains"], Forward, 0.3)
	r.Set(edges["contains"], Backward, 0.1)
	if err := r.Validate(); err != nil {
		t.Fatalf("Figure 3 rates should validate: %v", err)
	}
}

// TestCSRRandomGraphs cross-checks the CSR construction against a naive
// edge-list interpretation on random graphs.
func TestCSRRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, types, edges := dblpSchema(t)
	for trial := 0; trial < 25; trial++ {
		b := NewBuilder(s)
		n := 2 + rng.Intn(40)
		var papers []NodeID
		for i := 0; i < n; i++ {
			papers = append(papers, b.AddNode(types["Paper"]))
		}
		m := rng.Intn(4 * n)
		type pair struct{ u, v NodeID }
		var raw []pair
		for i := 0; i < m; i++ {
			u := papers[rng.Intn(n)]
			v := papers[rng.Intn(n)]
			b.AddEdge(u, v, edges["cites"])
			raw = append(raw, pair{u, v})
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		// Naive out-degree per direction.
		outFwd := make(map[NodeID]int)
		outBwd := make(map[NodeID]int)
		for _, e := range raw {
			outFwd[e.u]++
			outBwd[e.v]++
		}
		citesFwd := TransferType(edges["cites"], Forward)
		citesBwd := TransferType(edges["cites"], Backward)
		for _, p := range papers {
			if got := g.OutDeg(p, citesFwd); got != outFwd[p] {
				t.Fatalf("trial %d: OutDeg(%d,fwd) = %d, want %d", trial, p, got, outFwd[p])
			}
			if got := g.OutDeg(p, citesBwd); got != outBwd[p] {
				t.Fatalf("trial %d: OutDeg(%d,bwd) = %d, want %d", trial, p, got, outBwd[p])
			}
		}
	}
}

// TestPropertyInvDegConsistent checks, with testing/quick-generated edge
// lists, that every arc's InvDeg equals 1/OutDeg(source, type).
func TestPropertyInvDegConsistent(t *testing.T) {
	s, types, edges := dblpSchema(t)
	prop := func(pairs []uint16) bool {
		const n = 12
		b := NewBuilder(s)
		var nodes []NodeID
		for i := 0; i < n; i++ {
			nodes = append(nodes, b.AddNode(types["Paper"]))
		}
		for _, p := range pairs {
			u := nodes[int(p>>8)%n]
			v := nodes[int(p&0xff)%n]
			b.AddEdge(u, v, edges["cites"])
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, a := range g.OutArcs(NodeID(u)) {
				want := float32(1) / float32(g.OutDeg(NodeID(u), a.Type))
				if a.InvDeg != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
