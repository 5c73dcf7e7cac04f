package experiments

import (
	"context"

	"authorityflow/internal/core"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/sim"
)

// ExtensionActiveFeedback runs the future-work experiment the paper
// sketches in its conclusions (active feedback, [SZ05]): the same
// structure-only training protocol as Figure 11 (C_f = 0.5), with
// feedback objects chosen either passively (the paper's protocol: first
// relevant results in rank order) or actively (the most structurally
// diverse explaining subgraphs). Reported is the cosine training curve
// per policy; active selection is expected to match or accelerate the
// rate recovery per fed-back object.
func ExtensionActiveFeedback(cfg Config) (*CurveResult, error) {
	cfg = cfg.withDefaults(surveyScale)
	out := &CurveResult{Curves: map[string][]float64{}}
	policies := []struct {
		label  string
		policy sim.FeedbackPolicy
	}{
		{"passive", sim.PassiveFeedback},
		{"active", sim.ActiveFeedback},
	}
	queries := surveyQueries(4, 1)
	for _, p := range policies {
		sess := sim.DefaultSession(core.StructureOnly())
		sess.Iterations = 5
		sess.MaxFeedback = 2
		sess.Policy = p.policy
		curve, err := surveyCurve(cfg, 3, 20, queries, func(w *world, _, _ int, q *ir.Query) ([]float64, error) {
			res, err := sim.RunSession(w.sys, w.user, q, sess)
			if err != nil {
				return nil, err
			}
			return res.RateCosines(w.user.TruthRates()), nil
		})
		if err != nil {
			return nil, err
		}
		out.Labels = append(out.Labels, p.label)
		out.Curves[p.label] = curve
	}
	cfg.printf("Extension: active vs passive feedback selection (cosine per iteration)\n")
	for _, l := range out.Labels {
		cfg.printf("%-8s %s\n", l, fmtCurve(out.Curves[l], 4))
	}
	return out, cfg.saveCSV("active", out)
}

// ExtensionImplicitFeedback compares explicit marking against simulated
// click-through ([SB90]-style explicit marks vs the paper's remark that
// "the user's click-through could be used to implicitly derive such
// markings"): the same structure-only training loop, with the implicit
// variant selecting feedback by a position-biased cascade click model
// and scaling each object's Equation 14/15 contribution by its click
// confidence. Reported as cosine training curves per protocol.
func ExtensionImplicitFeedback(cfg Config) (*CurveResult, error) {
	cfg = cfg.withDefaults(surveyScale)
	out := &CurveResult{Curves: map[string][]float64{}}
	queries := surveyQueries(4, 1)
	for _, protocol := range []string{"explicit", "implicit"} {
		curve, err := surveyCurve(cfg, 3, 20, queries, func(w *world, ui, qi int, q *ir.Query) ([]float64, error) {
			return runImplicitSession(w, q, protocol, cfg.Seed+int64(ui*10+qi))
		})
		if err != nil {
			return nil, err
		}
		out.Labels = append(out.Labels, protocol)
		out.Curves[protocol] = curve
	}
	cfg.printf("Extension: explicit vs implicit (click-through) feedback, cosine per iteration\n")
	for _, l := range out.Labels {
		cfg.printf("%-9s %s\n", l, fmtCurve(out.Curves[l], 4))
	}
	return out, cfg.saveCSV("implicit", out)
}

// runImplicitSession runs 5 feedback iterations of one protocol and
// returns the cosine of the rates in force at each iteration to the
// user's expert rates. Each iteration ranks under the state the
// previous round published.
func runImplicitSession(w *world, q *ir.Query, protocol string, seed int64) ([]float64, error) {
	const iterations = 5
	ctx := context.Background()
	relevant, truth := w.user.Relevant(q), w.user.TruthRates()
	clicker := sim.NewClickModel(seed, 0.85, 0.9)
	var cosines, prev []float64
	cur, pin := q.Clone(), w.sys.Pin()
	for it := 0; it <= iterations; it++ {
		cosines = append(cosines, eval.CosineSimilarity(pin.Rates().Vector(), truth))
		spec := core.SolveSpec{Queries: []*ir.Query{cur}}
		if prev != nil {
			spec.Inits = [][]float64{prev}
		}
		rs, err := pin.Solve(ctx, spec)
		if err != nil {
			return nil, err
		}
		res := rs[0]
		prev = res.Scores
		if it == iterations {
			break
		}
		screen := res.TopKOfType(pin.Corpus().Graph(), w.resultType, 10)

		var nodes []graph.NodeID
		var confidences []float64
		if protocol == "implicit" {
			clicks := clicker.Simulate(screen, relevant)
			nodes = sim.Nodes(clicks)
			confidences = sim.Confidences(clicks)
		} else {
			nodes = w.user.Judge(screen, relevant, 3)
		}
		if len(nodes) == 0 {
			continue
		}
		round, err := pin.FeedbackCtx(ctx, cur, res, nodes, confidences, core.StructureOnly())
		if err != nil {
			return nil, err
		}
		pin, cur = round.Pin, round.Reformulation.Query
	}
	return cosines, nil
}
