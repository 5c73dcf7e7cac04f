package ir_test

import (
	"cmp"
	"slices"
	"testing"

	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// TestBaseSetAllocs: on dblptop, a warmed BaseSet of the highest-DF
// term, and of the three highest, allocates one object: its result.
func TestBaseSetAllocs(t *testing.T) {
	ds, err := datagen.GenerateDBLP(datagen.DBLPTopConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	ix := ir.BuildIndex(g.NumNodes(), func(i int) string { return g.Text(graph.NodeID(i)) }, ir.DefaultBM25())
	head := ix.TermsWithDF(1)
	slices.SortStableFunc(head, func(a, b string) int { return cmp.Compare(ix.DF(b), ix.DF(a)) })
	head = head[:3]
	for _, q := range []*ir.Query{ir.NewQuery(head[0]), ir.NewQuery(head...)} {
		ix.BaseSet(q)
		if n := testing.AllocsPerRun(20, func() { ix.BaseSet(q) }); n != 1 {
			t.Errorf("BaseSet(%v) allocates %v objects, want 1", q, n)
		}
	}
}
