package graph

import (
	"math"
	"math/rand"
	"slices"
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

// cloneFrozen copies the forward CSR of f, so a test can tamper with
// it without touching the graph it came from.
func cloneFrozen(f Frozen) Frozen {
	f.ArcStart = slices.Clone(f.ArcStart)
	f.Arcs = slices.Clone(f.Arcs)
	return f
}

// TestFromFrozenDerivesBuiltAdjacency reloads built graphs from their
// forward CSR alone: the derived reverse CSR must equal the one Build
// derived, and FromFrozen must not write into the arcs it was handed.
// Every reverse run is sorted by (source, type), the order the rank
// kernel's gather sums in.
func TestFromFrozenDerivesBuiltAdjacency(t *testing.T) {
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
		f := cloneFrozen(g.Frozen())
		before := slices.Clone(f.Arcs)
		got, err := FromFrozen(f)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !slices.Equal(f.Arcs, before) {
			t.Fatalf("graph %d: FromFrozen wrote into the arcs it was handed", i)
		}
		ws, wa := g.ReverseCSR()
		gs, ga := got.ReverseCSR()
		if !slices.Equal(gs, ws) || !slices.Equal(ga, wa) {
			t.Fatalf("graph %d: derived reverse CSR differs from the built one", i)
		}
		if got.Fingerprint() != g.Fingerprint() {
			t.Fatalf("graph %d: fingerprint %x after FromFrozen, want %x", i, got.Fingerprint(), g.Fingerprint())
		}
	}
}

// TestFromFrozenRejectsUnderivedArcs: a forward CSR whose inverse
// degrees or row order are not the ones Build derives is rejected.
func TestFromFrozenRejectsUnderivedArcs(t *testing.T) {
	g, ids := figure1Graph(t)
	// v4's row holds two forward cites arcs (InvDeg 1/2) of one type.
	start, arcs := g.ForwardCSR()
	v4 := ids["v4"]
	k := -1
	for i := start[v4]; i+1 < start[v4+1]; i++ {
		if arcs[i].Type == arcs[i+1].Type && arcs[i].To != arcs[i+1].To {
			k = int(i)
			break
		}
	}
	if k < 0 {
		t.Fatal("v4 has no two arcs of one type")
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(arcs []Arc)
	}{
		{"inverse degree one ulp up", "inverse out-degree", func(arcs []Arc) {
			arcs[k].InvDeg = math.Float32frombits(math.Float32bits(arcs[k].InvDeg) + 1)
		}},
		{"inverse degree of 1", "inverse out-degree", func(arcs []Arc) {
			arcs[k].InvDeg = 1
		}},
		{"inverse degree NaN", "inverse out-degree", func(arcs []Arc) {
			arcs[k].InvDeg = float32(math.NaN())
		}},
		{"row out of order", "order", func(arcs []Arc) {
			arcs[k], arcs[k+1] = arcs[k+1], arcs[k]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := cloneFrozen(g.Frozen())
			tc.mutate(f.Arcs)
			_, err := FromFrozen(f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
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
