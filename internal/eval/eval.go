// Package eval implements the evaluation measures of the paper's user
// surveys (Section 6.1): precision at k, the residual-collection
// relevance-feedback protocol of [RL03, SB90], and the cosine
// similarity used for the authority-transfer-rate training curves
// (Figures 11 and 13).
package eval

import (
	"math"

	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

// PrecisionAtK returns the fraction of the first k results that are
// relevant. With the output truncated to k, recall equals precision up
// to a constant, which is why the paper reports only precision.
func PrecisionAtK(results []rank.Ranked, relevant map[graph.NodeID]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(results) {
		k = len(results)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, r := range results[:k] {
		if relevant[r.Node] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// Residual implements the residual-collection method: objects already
// seen by the user and marked relevant are removed from the collection
// before both the initial and all reformulated queries are evaluated.
type Residual struct {
	seen map[graph.NodeID]bool
}

// NewResidual returns an empty residual-collection tracker.
func NewResidual() *Residual {
	return &Residual{seen: make(map[graph.NodeID]bool)}
}

// Remove marks objects as seen-relevant, excluding them from future
// evaluations.
func (r *Residual) Remove(objs ...graph.NodeID) {
	for _, o := range objs {
		r.seen[o] = true
	}
}

// Filter returns results with removed objects dropped, preserving order.
func (r *Residual) Filter(results []rank.Ranked) []rank.Ranked {
	out := make([]rank.Ranked, 0, len(results))
	for _, res := range results {
		if !r.seen[res.Node] {
			out = append(out, res)
		}
	}
	return out
}

// FilterRelevant returns the relevant set with removed objects dropped.
func (r *Residual) FilterRelevant(relevant map[graph.NodeID]bool) map[graph.NodeID]bool {
	out := make(map[graph.NodeID]bool, len(relevant))
	for o := range relevant {
		if !r.seen[o] {
			out[o] = true
		}
	}
	return out
}

// CosineSimilarity returns the cosine of the angle between two vectors,
// the Figures 11/13 measure of how close the learned authority transfer
// rates (UserVector) are to the expert ground truth (ObjVector).
// Returns 0 if either vector is zero or the lengths differ.
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	// Scale by the largest magnitude first so extreme components cannot
	// overflow the intermediate sums.
	maxAbs := 0.0
	for i := range a {
		if v := math.Abs(a[i]); v > maxAbs {
			maxAbs = v
		}
		if v := math.Abs(b[i]); v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		x, y := a[i]/maxAbs, b[i]/maxAbs
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// KendallTau returns the Kendall rank-correlation coefficient between
// two orderings of the same node set (1 = identical order, -1 =
// reversed). Nodes missing from either ranking are ignored.
func KendallTau(a, b []graph.NodeID) float64 {
	posB := make(map[graph.NodeID]int, len(b))
	for i, n := range b {
		posB[n] = i
	}
	var common []int
	for _, n := range a {
		if p, ok := posB[n]; ok {
			common = append(common, p)
		}
	}
	n := len(common)
	if n < 2 {
		return 1
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if common[i] < common[j] {
				concordant++
			} else if common[i] > common[j] {
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
