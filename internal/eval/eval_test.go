package eval

import (
	"math"
	"testing"
	"testing/quick"

	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

func ranked(ids ...graph.NodeID) []rank.Ranked {
	out := make([]rank.Ranked, len(ids))
	for i, id := range ids {
		out[i] = rank.Ranked{Node: id, Score: float64(len(ids) - i)}
	}
	return out
}

func relset(ids ...graph.NodeID) map[graph.NodeID]bool {
	m := make(map[graph.NodeID]bool)
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestPrecisionAtK(t *testing.T) {
	res := ranked(1, 2, 3, 4, 5)
	rel := relset(1, 3, 9)
	if got := PrecisionAtK(res, rel, 5); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P@5 = %v", got)
	}
	if got := PrecisionAtK(res, rel, 1); got != 1 {
		t.Errorf("P@1 = %v", got)
	}
	if got := PrecisionAtK(res, rel, 2); got != 0.5 {
		t.Errorf("P@2 = %v", got)
	}
	// k beyond result length uses the available results.
	if got := PrecisionAtK(res, rel, 100); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P@100 = %v", got)
	}
	if got := PrecisionAtK(res, rel, 0); got != 0 {
		t.Errorf("P@0 = %v", got)
	}
	if got := PrecisionAtK(nil, rel, 5); got != 0 {
		t.Errorf("P on empty = %v", got)
	}
}

func TestResidualCollection(t *testing.T) {
	r := NewResidual()
	res := ranked(1, 2, 3, 4)
	if got := r.Filter(res); len(got) != 4 {
		t.Errorf("Filter before Remove = %v", got)
	}
	r.Remove(2, 4)
	got := r.Filter(res)
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 3 {
		t.Errorf("Filter = %v", got)
	}
	rel := r.FilterRelevant(relset(1, 2, 3))
	if rel[2] || !rel[1] || !rel[3] {
		t.Errorf("FilterRelevant = %v", rel)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical = %v", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("orthogonal = %v", got)
	}
	// Scale invariance — the rate-training curves rely on it since the
	// normalization rescales all rates by a common factor.
	a := []float64{0.7, 0, 0.2, 0.2, 0.3, 0.3, 0.3, 0.1}
	b := make([]float64, len(a))
	for i := range a {
		b[i] = a[i] * 0.808
	}
	if got := CosineSimilarity(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled = %v", got)
	}
	if got := CosineSimilarity(a, a[:3]); got != 0 {
		t.Errorf("length mismatch = %v", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("zero vector = %v", got)
	}
}

func TestCosinePropertyBounds(t *testing.T) {
	prop := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		c := CosineSimilarity(a[:n], b[:n])
		return !math.IsNaN(c) && c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKendallTau(t *testing.T) {
	a := []graph.NodeID{1, 2, 3, 4}
	if got := KendallTau(a, a); got != 1 {
		t.Errorf("identical = %v", got)
	}
	rev := []graph.NodeID{4, 3, 2, 1}
	if got := KendallTau(a, rev); got != -1 {
		t.Errorf("reversed = %v", got)
	}
	if got := KendallTau(a, []graph.NodeID{9, 10}); got != 1 {
		t.Errorf("disjoint = %v", got)
	}
	// One swap in 4 elements: tau = (5-1)/6.
	if got := KendallTau(a, []graph.NodeID{2, 1, 3, 4}); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("one swap = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}
