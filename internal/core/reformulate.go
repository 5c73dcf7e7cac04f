package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// ReformulateOptions control query reformulation (Section 5).
type ReformulateOptions struct {
	// Ce is the expansion factor (0..1) scaling the weights of the
	// content-based expansion terms relative to the current query
	// vector (Equation 12). 0 disables content-based reformulation.
	// The paper typically uses 0.5 and 0.2 in the surveys.
	Ce float64
	// Cf is the authority-transfer-rate adjustment factor (0..1) of
	// the structure-based reformulation (Equation 13). 0 disables
	// structure-based reformulation. The paper typically uses 0.5.
	Cf float64
	// Cd is the decay factor weighting expansion terms by their
	// distance from the feedback object (Equation 11), typically 0.5.
	Cd float64
	// TopTerms is Z, the number of highest-weighted expansion terms
	// added to the query (default 5).
	TopTerms int
}

func (o ReformulateOptions) withDefaults() ReformulateOptions {
	if o.Cd == 0 {
		o.Cd = 0.5
	}
	if o.TopTerms == 0 {
		o.TopTerms = 5
	}
	return o
}

// ContentOnly returns the paper's content-only survey setting.
func ContentOnly() ReformulateOptions { return ReformulateOptions{Ce: 0.2, Cf: 0, Cd: 0.5} }

// StructureOnly returns the paper's structure-only survey setting.
func StructureOnly() ReformulateOptions { return ReformulateOptions{Ce: 0, Cf: 0.5, Cd: 0.5} }

// ContentAndStructure returns the paper's combined survey setting.
func ContentAndStructure() ReformulateOptions {
	return ReformulateOptions{Ce: 0.2, Cf: 0.5, Cd: 0.5}
}

// WeightedTerm is one expansion-term candidate with its Equation 11
// weight (after normalization).
type WeightedTerm struct {
	Term   string
	Weight float64
}

// Reformulation is the outcome of one feedback iteration: the expanded
// query vector and the adjusted authority transfer rates, along with
// diagnostics for display and experiments.
type Reformulation struct {
	// Query is the reformulated query vector Q_{i+1}.
	Query *ir.Query
	// Rates is the reformulated authority transfer rate assignment.
	// Equal to the input rates (cloned) when Cf is 0.
	Rates *graph.Rates
	// Expansion lists the terms added (or re-weighted) by the
	// content-based component, highest weight first; empty when Ce = 0.
	Expansion []WeightedTerm
	// FlowByType holds the aggregated F(e_S) factors per transfer type
	// before normalization (Equation 13/15 diagnostics).
	FlowByType []float64
}

// ReformulateWeightedCtx produces a reformulated query from the
// explaining subgraphs of the user-selected feedback objects
// (Section 5). The content-based component (5.1) expands the query
// vector with terms from nodes that transfer high authority to the
// feedback objects; the structure-based component (5.2) boosts the
// transfer rates of edge types that carry large authority in the
// explaining subgraphs. Multiple feedback objects combine by summation
// (5.3, Equations 14–15), each scaled by its confidence weight — the
// paper's click-through remark made concrete ("the user's click-through
// could be used to implicitly derive such markings"): implicit signals
// are weaker than explicit marks. nil confidences mean 1 everywhere
// (explicit marks, the plain summation of Section 5.3); the weight
// count must otherwise match the feedback count and weights must be
// non-negative.
//
// The cloned-and-adjusted Rates in the result derive from the PINNED
// snapshot's rates, not from whatever SetRates may have published since
// the caller started its feedback round. Combined with
// TrySetRates(result.Rates, pin.Version()) this gives callers an
// optimistic-concurrency loop: the adjustment is computed off a stable
// basis and publication fails (rather than silently clobbering) when
// another writer got there first.
//
// The reformulation itself is cheap (its cost is linear in the feedback
// subgraphs, not the corpus), so ctx is checked at entry and between
// the content and structure components — enough to make an already-dead
// request return immediately without starting the clone-and-adjust
// work.
func (p *Pinned) ReformulateWeightedCtx(ctx context.Context, q *ir.Query, feedback []*Subgraph, confidences []float64, opts ReformulateOptions) (*Reformulation, error) {
	st := p.st
	snap := st.snap
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(feedback) == 0 {
		return nil, fmt.Errorf("core: reformulation requires at least one feedback object")
	}
	if confidences != nil && len(confidences) != len(feedback) {
		return nil, fmt.Errorf("core: %d confidences for %d feedback objects", len(confidences), len(feedback))
	}
	for _, c := range confidences {
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("core: invalid feedback confidence %v", c)
		}
	}
	weightOf := func(i int) float64 {
		if confidences == nil {
			return 1
		}
		return confidences[i]
	}
	opts = opts.withDefaults()
	g := st.gen.corpus.g
	out := &Reformulation{Query: q.Clone(), Rates: snap.rates.Clone()}

	if opts.Ce > 0 {
		weights := make(map[string]float64)
		for i, sg := range feedback {
			per := make(map[string]float64)
			contentWeights(g, sg, opts.Cd, per) // Equation 14: weighted sum across objects
			for t, w := range per {
				weights[t] += weightOf(i) * w
			}
		}
		out.Expansion = expandQuery(out.Query, weights, opts)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Cf > 0 {
		flows := make([]float64, g.Schema().NumTransferTypes())
		for i, sg := range feedback {
			sg.addFlowByType(flows, weightOf(i)) // Equation 15: weighted sum across objects
		}
		out.FlowByType = append([]float64(nil), flows...)
		out.Rates = adjustRates(snap.rates, flows, opts.Cf)
	}
	return out, nil
}

// addFlowByType adds w times each arc's adjusted flow into acc at the
// arc's transfer type, in arc order: one feedback object's term of the
// Equation 15 sum. It walks the rows and derives only Type and Flow.
func (sg *Subgraph) addFlowByType(acc []float64, w float64) {
	d, alpha, csr, h, refs := sg.damping, sg.alpha, sg.csr, sg.h, sg.Arcs
	for i, r := range sg.score {
		for k := sg.rowStart[i]; k < sg.rowStart[i+1]; k++ {
			ref := refs[k]
			a := &csr[ref.CSR]
			_, flow := arcFlows(d, transferRate(alpha, a), r, h[ref.Head])
			acc[a.Type] += w * flow
		}
	}
}

// contentWeights accumulates the Equation 11 expansion-term weights for
// one feedback object's explaining subgraph into acc:
//
//	w'(t) = sum over nodes v_k containing t of
//	        C_d^D(v_k) · (authority v_k transfers toward the target)
//
// where the per-node authority is the node's adjusted out-flow in the
// subgraph (d · in-flow for the target itself) and D(v_k) is the node's
// distance from the target. Stopwords and single-character tokens are
// excluded.
func contentWeights(g *graph.Graph, sg *Subgraph, cd float64, acc map[string]float64) {
	for _, v := range sg.Nodes {
		authority := sg.NodeAuthority(v)
		if authority <= 0 {
			continue
		}
		decay := math.Pow(cd, float64(sg.Dist(v)))
		contribution := decay * authority
		// Each distinct term of the node contributes once.
		seen := make(map[string]bool)
		for _, tok := range ir.TokenizeFiltered(g.Text(v)) {
			if !seen[tok] {
				seen[tok] = true
				acc[tok] += contribution
			}
		}
	}
}

// expandQuery performs the Equation 12 update: it selects the top-Z
// candidate terms, normalizes their weights so the maximum equals the
// current query's average term weight a_q (Section 5.1 normalization),
// and adds C_e times each normalized weight to the query vector.
func expandQuery(q *ir.Query, weights map[string]float64, opts ReformulateOptions) []WeightedTerm {
	candidates := make([]WeightedTerm, 0, len(weights))
	for t, w := range weights {
		if w > 0 {
			candidates = append(candidates, WeightedTerm{Term: t, Weight: w})
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Weight != candidates[j].Weight {
			return candidates[i].Weight > candidates[j].Weight
		}
		return candidates[i].Term < candidates[j].Term
	})
	if len(candidates) > opts.TopTerms {
		candidates = candidates[:opts.TopTerms]
	}
	if len(candidates) == 0 {
		return nil
	}
	// Normalize: the maximum selected weight becomes a_q, the average
	// weight of the current query vector.
	aq := q.AverageWeight()
	if aq == 0 {
		aq = 1
	}
	scale := aq / candidates[0].Weight
	for i := range candidates {
		candidates[i].Weight *= scale
	}
	for _, c := range candidates {
		q.Add(c.Term, opts.Ce*c.Weight)
	}
	return candidates
}

// adjustRates performs the Equation 13 structure-based update with the
// paper's normalization pipeline:
//
//  1. normalize the per-type flow factors F(e_S) by their maximum;
//  2. boost every rate: a'(e_S) = (1 + C_f · F̂(e_S)) · a(e_S);
//  3. if any single rate exceeds 1, rescale all rates by the maximum;
//  4. if any schema node's outgoing rates sum beyond 1, rescale ALL
//     rates by the largest such sum. Global (rather than per-node)
//     rescaling preserves the relative proportions between edge types —
//     this reproduces the paper's Example 2, where rates of types
//     carrying no flow (CY, YC, YP, AP) all shrink by the same factor.
func adjustRates(old *graph.Rates, flows []float64, cf float64) *graph.Rates {
	schema := old.Schema()
	norm := append([]float64(nil), flows...)
	maxF := 0.0
	for _, f := range norm {
		if f > maxF {
			maxF = f
		}
	}
	if maxF > 0 {
		for i := range norm {
			norm[i] /= maxF
		}
	}

	vec := old.Vector()
	for i := range vec {
		vec[i] *= 1 + cf*norm[i]
	}

	maxRate := 0.0
	for _, a := range vec {
		if a > maxRate {
			maxRate = a
		}
	}
	if maxRate > 1 {
		for i := range vec {
			vec[i] /= maxRate
		}
	}

	tmp := graph.NewRates(schema)
	if err := tmp.SetVector(vec); err != nil {
		// vec is derived from validated non-negative inputs.
		panic(err)
	}
	maxSum := 0.0
	for t := graph.TypeID(0); int(t) < schema.NumNodeTypes(); t++ {
		if s := tmp.OutgoingSum(t); s > maxSum {
			maxSum = s
		}
	}
	if maxSum > 1 {
		for i := range vec {
			vec[i] /= maxSum
		}
		if err := tmp.SetVector(vec); err != nil {
			panic(err)
		}
	}
	return tmp
}
