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
		var curves [][]float64
		for ui := 0; ui < 3; ui++ {
			w, err := dblpWorld(cfg, cfg.Seed+int64(ui)+1, 20+5*ui)
			if err != nil {
				return nil, err
			}
			truth := w.user.TruthRates()
			for _, raw := range queries {
				if err := w.reset(); err != nil {
					return nil, err
				}
				sess := sim.DefaultSession(core.StructureOnly())
				sess.Iterations = 5
				sess.MaxFeedback = 2
				sess.Policy = p.policy
				res, err := sim.RunSession(w.sys, w.user, ir.ParseQuery(raw), sess)
				if err != nil {
					return nil, err
				}
				curves = append(curves, res.RateCosines(truth))
			}
		}
		out.Labels = append(out.Labels, p.label)
		out.Curves[p.label] = meanCurves(curves)
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
		var curves [][]float64
		for ui := 0; ui < 3; ui++ {
			w, err := dblpWorld(cfg, cfg.Seed+int64(ui)+1, 20+5*ui)
			if err != nil {
				return nil, err
			}
			truth := w.user.TruthRates()
			for qi, raw := range queries {
				if err := w.reset(); err != nil {
					return nil, err
				}
				curve, err := runImplicitSession(w, ir.ParseQuery(raw), protocol, cfg.Seed+int64(ui*10+qi))
				if err != nil {
					return nil, err
				}
				cos := make([]float64, len(curve))
				for i, v := range curve {
					cos[i] = eval.CosineSimilarity(v, truth)
				}
				curves = append(curves, cos)
			}
		}
		out.Labels = append(out.Labels, protocol)
		out.Curves[protocol] = meanCurves(curves)
	}
	cfg.printf("Extension: explicit vs implicit (click-through) feedback, cosine per iteration\n")
	for _, l := range out.Labels {
		cfg.printf("%-9s %s\n", l, fmtCurve(out.Curves[l], 4))
	}
	return out, cfg.saveCSV("implicit", out)
}

// runImplicitSession runs 5 feedback iterations of one protocol and
// returns the rate vector in force at each iteration.
func runImplicitSession(w *world, q *ir.Query, protocol string, seed int64) ([][]float64, error) {
	const iterations = 5
	relevant := w.user.Relevant(q)
	clicker := sim.NewClickModel(seed, 0.85, 0.9)
	var rateHistory [][]float64
	var prev []float64
	cur := q.Clone()
	for it := 0; it <= iterations; it++ {
		pin := w.sys.Pin()
		rateHistory = append(rateHistory, pin.Rates().Vector())
		spec := core.SolveSpec{Queries: []*ir.Query{cur}}
		if prev != nil {
			spec.Inits = [][]float64{prev}
		}
		rs, err := pin.Solve(context.Background(), spec)
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
		var subs []*core.Subgraph
		for _, n := range nodes {
			sg, err := pin.ExplainCtx(context.Background(), res, n, core.DefaultExplain())
			if err != nil {
				return nil, err
			}
			subs = append(subs, sg)
		}
		ref, err := pin.ReformulateWeightedCtx(context.Background(), cur, subs, confidences, core.StructureOnly())
		if err != nil {
			return nil, err
		}
		if err := w.sys.SetRates(ref.Rates); err != nil {
			return nil, err
		}
		cur = ref.Query
	}
	return rateHistory, nil
}
