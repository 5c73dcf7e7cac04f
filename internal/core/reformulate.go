package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
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

// ParseStrategy names the survey settings: "structure" (or "") is
// StructureOnly, "content" ContentOnly, "both" ContentAndStructure.
func ParseStrategy(mode string) (ReformulateOptions, error) {
	switch mode {
	case "", "structure":
		return StructureOnly(), nil
	case "content":
		return ContentOnly(), nil
	case "both":
		return ContentAndStructure(), nil
	}
	return ReformulateOptions{}, errors.New("unknown mode " + mode)
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
// The adjusted Rates derive from the PINNED snapshot's rates, the
// basis FeedbackCtx publishes them over by compare-and-swap.
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
		// Equation 11 reads every subgraph's sums: their passes run side by
		// side, as the explains did, before the serial fold.
		parallel(len(feedback), func(i int) { feedback[i].sums() })
		ix := st.gen.corpus.ix
		sc := st.gen.getTermScratch(ix.NumTerms())
		for i, sg := range feedback {
			sc.contentWeights(ix, sg, opts.Cd)
			sc.fold(weightOf(i)) // Equation 14: weighted sum across objects
		}
		out.Expansion = expandQuery(out.Query, ix, sc, opts)
		st.gen.putTermScratch(sc)
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

// Round is one feedback round of the paper's loop.
type Round struct {
	// Subgraphs explain the feedback objects (Figure 8, Eq. 10), in ids'
	// order; Reformulation is what Eq. 11–15 make of them.
	Subgraphs     []*Subgraph
	Reformulation *Reformulation
	// ReformulateDur is stage (d) of Figures 14–17: Eq. 11–15, and with
	// Ce > 0 also the subgraphs' deferred Eq. 6 passes that Eq. 11's
	// content weights read (no explain duration covers them).
	ReformulateDur time.Duration
	// Pin is the state in force after the round: the one it published,
	// or, alongside ErrRatesConflict, the one that won the race.
	Pin *Pinned
}

// FeedbackCtx is one feedback round against the pinned state: it
// explains each of ids under res at DefaultExplain (ExplainEachCtx),
// reformulates q from the subgraphs (ReformulateWeightedCtx) and
// publishes the rates by compare-and-swap at the pin's version. A
// caller requeries (warm from res.Scores, §6.2) under the returned
// Pin, exactly the rates and generation it published. If another
// writer published or swapped the corpus since the pin was taken,
// nothing is published and the round comes back with ErrRatesConflict.
// An explain or reformulation error returns no round.
func (p *Pinned) FeedbackCtx(ctx context.Context, q *ir.Query, res *RankResult, ids []graph.NodeID, confidences []float64, opts ReformulateOptions) (*Round, error) {
	subs, err := p.ExplainEachCtx(ctx, res, ids, DefaultExplain())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref, err := p.ReformulateWeightedCtx(ctx, q, subs, confidences, opts)
	if err != nil {
		return nil, err
	}
	r := &Round{Subgraphs: subs, Reformulation: ref, ReformulateDur: time.Since(t0)}
	st, err := p.e.publish(nil, ref.Rates.Clone(), p.st.snap.version, 0)
	r.Pin = &Pinned{e: p.e, st: st}
	return r, err
}

// addFlowByType adds w times each arc's adjusted flow into acc at the
// arc's transfer type, in arc order: one feedback object's term of the
// Equation 15 sum. It walks the rows and derives only Type and Flow.
func (sg *Subgraph) addFlowByType(acc []float64, w float64) {
	d, alpha, h, arcs := sg.damping, sg.alpha, sg.h, sg.Arcs
	for i, r := range sg.score {
		for _, a := range arcs[sg.rowStart[i]:sg.rowStart[i+1]] {
			_, flow := arcFlows(d, a.rate(alpha), r, h[a.Head])
			acc[a.Type] += w * flow
		}
	}
}

// termScratch is Eq. 11's dense state over the dictionary's term ids:
// one feedback object's weights (per) and their confidence-weighted sum
// over the objects so far (total), each with the ids it holds in the
// order they were first touched and a mark per id, so a reset walks
// only those ids.
type termScratch struct {
	per, total       []float64
	inPer, inTotal   []bool
	perIDs, totalIDs []int32
}

func (gn *generation) getTermScratch(n int) *termScratch {
	if sc, _ := gn.termScratch.Get().(*termScratch); sc != nil {
		return sc
	}
	return &termScratch{per: make([]float64, n), total: make([]float64, n), inPer: make([]bool, n), inTotal: make([]bool, n)}
}

// putTermScratch resets the total and pools sc (fold has reset per).
func (gn *generation) putTermScratch(sc *termScratch) {
	for _, id := range sc.totalIDs {
		sc.total[id], sc.inTotal[id] = 0, false
	}
	sc.totalIDs = sc.totalIDs[:0]
	gn.termScratch.Put(sc)
}

// contentWeights accumulates the Equation 11 expansion-term weights for
// one feedback object's explaining subgraph into sc.per:
//
//	w'(t) = sum over nodes v_k containing t of
//	        C_d^D(v_k) · (authority v_k transfers toward the target)
//
// where the per-node authority is the node's adjusted out-flow in the
// subgraph (d · in-flow for the target itself) and D(v_k) is the node's
// distance from the target. The terms of v_k are its forward-table row:
// each distinct content term once, stopwords and single-character
// tokens excluded. Each term's sum runs in node order.
func (sc *termScratch) contentWeights(ix *ir.Index, sg *Subgraph, cd float64) {
	for i, v := range sg.Nodes {
		authority := sg.nodeAuthority(i)
		if authority <= 0 {
			continue
		}
		decay := math.Pow(cd, float64(sg.dist[i]))
		contribution := decay * authority
		for _, id := range ix.DocTerms(int32(v)) {
			if !sc.inPer[id] {
				sc.inPer[id] = true
				sc.perIDs = append(sc.perIDs, id)
			}
			sc.per[id] += contribution
		}
	}
}

// fold adds w times the object's weights into the total and resets
// per for the next object.
func (sc *termScratch) fold(w float64) {
	for _, id := range sc.perIDs {
		if !sc.inTotal[id] {
			sc.inTotal[id] = true
			sc.totalIDs = append(sc.totalIDs, id)
		}
		sc.total[id] += w * sc.per[id]
		sc.per[id], sc.inPer[id] = 0, false
	}
	sc.perIDs = sc.perIDs[:0]
}

// idWeight is one candidate of Eq. 12's top-Z: a term id and its
// Eq. 11 weight.
type idWeight struct {
	id int32
	w  float64
}

// expandQuery performs the Equation 12 update: it selects the top-Z
// candidate terms of sc.total, normalizes their weights so the maximum
// equals the current query's average term weight a_q (Section 5.1
// normalization), and adds C_e times each normalized weight to the
// query vector. Ties break on the term id, which orders as the term
// does (the dictionary is sorted); only the kept terms' strings are
// looked up.
func expandQuery(q *ir.Query, ix *ir.Index, sc *termScratch, opts ReformulateOptions) []WeightedTerm {
	top := rank.NewTop(min(opts.TopTerms, len(sc.totalIDs)), func(c idWeight) float64 { return c.w }, compareIDWeights)
	for _, id := range sc.totalIDs {
		if w := sc.total[id]; w > 0 && top.Admits(w) {
			top.Offer(idWeight{id, w})
		}
	}
	kept := top.Sorted()
	if len(kept) == 0 {
		return nil
	}
	// Normalize: the maximum selected weight becomes a_q, the average
	// weight of the current query vector.
	aq := q.AverageWeight()
	if aq == 0 {
		aq = 1
	}
	scale := aq / kept[0].w
	candidates := make([]WeightedTerm, len(kept))
	for i, c := range kept {
		candidates[i] = WeightedTerm{Term: ix.Term(c.id), Weight: c.w * scale}
	}
	for _, c := range candidates {
		q.Add(c.Term, opts.Ce*c.Weight)
	}
	return candidates
}

// compareIDWeights is the expansion terms' order: weight descending,
// then term.
func compareIDWeights(a, b idWeight) int {
	return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.id, b.id))
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
