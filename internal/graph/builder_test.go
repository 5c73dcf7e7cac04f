package graph

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// randomCitations builds a graph of n papers and m random cites edges,
// self-loops and repeated edges included.
func randomCitations(t *testing.T, rng *rand.Rand, n, m int) *Graph {
	t.Helper()
	s, types, edges := dblpSchema(t)
	b := NewBuilder(s)
	for i := 0; i < n; i++ {
		b.AddNode(types["Paper"])
	}
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), edges["cites"])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sortedRows is the forward CSR of edges over n nodes built the direct
// way: both arcs of every edge appended to their sources' rows, each
// row sorted by (type, target), each InvDeg one over its run length.
func sortedRows(n int, edges []Edge) ([]int32, []Arc) {
	rows := make([][]Arc, n)
	for _, e := range edges {
		rows[e.From] = append(rows[e.From], Arc{To: e.To, Type: TransferType(e.Type, Forward)})
		rows[e.To] = append(rows[e.To], Arc{To: e.From, Type: TransferType(e.Type, Backward)})
	}
	start := []int32{0}
	var arcs []Arc
	for _, row := range rows {
		sort.Slice(row, func(i, j int) bool {
			return row[i].Type < row[j].Type || row[i].Type == row[j].Type && row[i].To < row[j].To
		})
		for i := range row {
			deg := 0
			for _, a := range row {
				if a.Type == row[i].Type {
					deg++
				}
			}
			row[i].InvDeg = float32(1) / float32(deg)
		}
		arcs = append(arcs, row...)
		start = append(start, int32(len(arcs)))
	}
	return start, arcs
}

// TestFromEdgesMatchesBuild rebuilds built graphs from their labels,
// attributes and Edges, in CSR order and shuffled: both CSR halves and
// the fingerprint must equal the built graph's, and the forward CSR
// the directly sorted one. Every reverse run is sorted by (source,
// type), the order the rank kernel's gather sums in.
func TestFromEdgesMatchesBuild(t *testing.T) {
	fig, _ := figure1Graph(t)
	graphs := []*Graph{fig}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		graphs = append(graphs, randomCitations(t, rng, 1+rng.Intn(30), rng.Intn(120)))
	}
	for i, g := range graphs {
		for v := 0; v < g.NumNodes(); v++ {
			in := g.InArcs(NodeID(v))
			for k := 1; k < len(in); k++ {
				if in[k].To < in[k-1].To || in[k].To == in[k-1].To && in[k].Type < in[k-1].Type {
					t.Fatalf("graph %d: node %d's reverse arcs %d and %d are out of (source, type) order", i, v, k-1, k)
				}
			}
		}
		ws, wa := sortedRows(g.NumNodes(), g.Edges())
		if gs, ga := g.ForwardCSR(); !slices.Equal(gs, ws) || !slices.Equal(ga, wa) {
			t.Fatalf("graph %d: forward CSR differs from the directly sorted rows", i)
		}
		edges := g.Edges()
		if len(edges) != g.NumEdges() {
			t.Fatalf("graph %d: %d edges enumerated, NumEdges is %d", i, len(edges), g.NumEdges())
		}
		shuffled := slices.Clone(edges)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		for _, es := range [][]Edge{edges, shuffled} {
			got, err := FromEdges(g.Schema(), slices.Clone(g.labels), slices.Clone(g.attrs), es)
			if err != nil {
				t.Fatalf("graph %d: %v", i, err)
			}
			for _, half := range []struct {
				name       string
				want, have func() ([]int32, []Arc)
			}{{"forward", g.ForwardCSR, got.ForwardCSR}, {"reverse", g.ReverseCSR, got.ReverseCSR}} {
				ws, wa := half.want()
				gs, ga := half.have()
				if !slices.Equal(gs, ws) || !slices.Equal(ga, wa) {
					t.Fatalf("graph %d: %s CSR differs from the built one", i, half.name)
				}
			}
			if got.Fingerprint() != g.Fingerprint() {
				t.Fatalf("graph %d: fingerprint %x after FromEdges, want %x", i, got.Fingerprint(), g.Fingerprint())
			}
			if !slices.Equal(got.Edges(), edges) {
				t.Fatalf("graph %d: Edges of the rebuilt graph differ", i)
			}
		}
	}
}

// TestFromEdgesRejectsNonconformingInput: every bad label, endpoint,
// edge type and endpoint-label pairing is rejected with the message
// the Builder reports.
func TestFromEdgesRejectsNonconformingInput(t *testing.T) {
	s, types, et := dblpSchema(t)
	labels := []TypeID{types["Conference"], types["Year"], types["Paper"], types["Author"]}
	attrs := make([][]Attr, len(labels))
	for _, tc := range []struct {
		name   string
		labels []TypeID
		edge   Edge
		want   string
	}{
		{"negative label", []TypeID{types["Paper"], -1}, Edge{}, "node 1 has unknown label -1"},
		{"label past the schema", []TypeID{77}, Edge{}, "node 0 has unknown label 77"},
		{"negative source", nil, Edge{-1, 1, et["hasInstance"]}, "unknown source node -1"},
		{"source past the nodes", nil, Edge{4, 1, et["hasInstance"]}, "unknown source node 4"},
		{"negative target", nil, Edge{0, -1, et["hasInstance"]}, "unknown target node -1"},
		{"target past the nodes", nil, Edge{0, 4, et["hasInstance"]}, "unknown target node 4"},
		{"negative type", nil, Edge{0, 1, -1}, "unknown edge type -1"},
		{"type past the schema", nil, Edge{0, 1, 99}, "unknown edge type 99"},
		{"target label breaks the type", nil, Edge{0, 2, et["hasInstance"]},
			"edge 0->2 does not conform to type Conference-hasInstance->Year (got Conference->Paper)"},
		{"source label breaks the type", nil, Edge{3, 2, et["cites"]},
			"edge 3->2 does not conform to type Paper-cites->Paper (got Author->Paper)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls, as, es := labels, attrs, []Edge{{0, 1, et["hasInstance"]}, tc.edge}
			if tc.labels != nil {
				ls, as, es = tc.labels, make([][]Attr, len(tc.labels)), nil
			}
			g, err := FromEdges(s, ls, as, es)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if g != nil {
				t.Fatal("a graph came back with the error")
			}
		})
	}
	if _, err := FromEdges(s, labels, attrs[:1], nil); err == nil || !strings.Contains(err.Error(), "4 labels but 1 attribute tuples") {
		t.Fatalf("err = %v for one attribute tuple per four labels", err)
	}
}

// TestFingerprintHashesRowOffsets: two graphs with the same arc array
// that differ only in where one row ends digest differently.
func TestFingerprintHashesRowOffsets(t *testing.T) {
	g, _ := figure1Graph(t)
	moved := slices.Clone(g.arcStart)
	v := 1
	for moved[v] == moved[v+1] {
		v++
	}
	moved[v]++ // the first arc of v's row now ends v-1's row
	h := &Graph{
		schema:   g.schema,
		labels:   g.labels,
		attrs:    g.attrs,
		numEdges: g.numEdges,
		arcStart: moved,
		arcs:     g.arcs,
	}
	if h.Fingerprint() == g.Fingerprint() {
		t.Fatalf("moving node %d's row start left the fingerprint at %x", v, g.Fingerprint())
	}
}
