package experiments

import (
	"fmt"
	"strings"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
	"authorityflow/internal/sim"
)

// Table1Row is one dataset's statistics.
type Table1Row struct {
	Name       string
	Nodes      int
	Edges      int
	SizeMB     float64
	PaperNodes int // Table 1 reference values at scale 1.0
	PaperEdges int
}

// Table1Result holds the Table 1 reproduction.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 regenerates Table 1: the four evaluation datasets with node,
// edge and size statistics.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.withDefaults(perfScale)
	out := &Table1Result{}

	type gen struct {
		name       string
		build      func() (*datagen.Dataset, error)
		refN, refE int
	}
	gens := []gen{
		{"DBLPcomplete", func() (*datagen.Dataset, error) {
			return datagen.GenerateDBLP(datagen.DBLPCompleteConfig().Scale(cfg.Scale))
		}, 876110, 4166626},
		{"DBLPtop", func() (*datagen.Dataset, error) {
			return datagen.GenerateDBLP(datagen.DBLPTopConfig().Scale(cfg.Scale))
		}, 22653, 166960},
		{"DS7", func() (*datagen.Dataset, error) {
			return datagen.GenerateBio(datagen.DS7Config().Scale(cfg.Scale))
		}, 699199, 3533756},
		{"DS7cancer", func() (*datagen.Dataset, error) {
			return datagen.GenerateBio(datagen.DS7CancerConfig().Scale(cfg.Scale))
		}, 37796, 138146},
	}
	cfg.printf("Table 1: datasets (scale %.2f; paper reference at scale 1.00)\n", cfg.Scale)
	cfg.printf("%-14s %10s %10s %8s %12s %12s\n", "name", "nodes", "edges", "MB", "paper-nodes", "paper-edges")
	for _, g := range gens {
		ds, err := g.build()
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Name:       g.name,
			Nodes:      ds.Graph.NumNodes(),
			Edges:      ds.Graph.NumEdges(),
			SizeMB:     float64(ds.Graph.SizeBytes()) / (1 << 20),
			PaperNodes: g.refN,
			PaperEdges: g.refE,
		}
		out.Rows = append(out.Rows, row)
		cfg.printf("%-14s %10d %10d %8.1f %12d %12d\n",
			row.Name, row.Nodes, row.Edges, row.SizeMB, row.PaperNodes, row.PaperEdges)
	}
	return out, cfg.saveCSV("table1", out)
}

// CurveResult is a family of per-iteration curves keyed by setting.
type CurveResult struct {
	// Labels orders the settings for display.
	Labels []string
	// Curves maps a setting label to its per-iteration series (index 0
	// = initial query).
	Curves map[string][]float64
}

// Figure10 regenerates the internal survey precision comparison:
// average residual-collection precision across the initial and 4
// reformulated queries for content-only, content & structure, and
// structure-only reformulation. The paper's finding — structure-only is
// superior because expert users already know the right keywords — is
// reproduced by oracle users whose judgments are purely link-structural
// (the hidden expert rates).
func Figure10(cfg Config) (*CurveResult, error) {
	cfg = cfg.withDefaults(surveyScale)
	settings := []struct {
		label string
		opts  core.ReformulateOptions
	}{
		{"content-only", core.ReformulateOptions{Ce: 0.2, Cf: 0, Cd: 0.5}},
		{"content+structure", core.ReformulateOptions{Ce: 0.2, Cf: 0.5, Cd: 0.5}},
		{"structure-only", core.ReformulateOptions{Ce: 0, Cf: 0.5, Cd: 0.5}},
	}
	out := &CurveResult{Curves: map[string][]float64{}}
	queries := surveyQueries(5, 1)

	for _, s := range settings {
		// The 5-subject internal survey: users differing in how deep
		// their notion of relevance goes (top 15 to top 35).
		curve, err := surveyCurve(cfg, 5, 15, queries, func(w *world, _, _ int, q *ir.Query) ([]float64, error) {
			res, err := sim.RunSession(w.sys, w.user, q, sim.DefaultSession(s.opts))
			if err != nil {
				return nil, err
			}
			return res.Precisions(), nil
		})
		if err != nil {
			return nil, err
		}
		out.Labels = append(out.Labels, s.label)
		out.Curves[s.label] = curve
	}

	cfg.printf("Figure 10: internal survey, average precision per iteration\n")
	cfg.printf("%-20s %s\n", "setting", "initial  reform1  reform2  reform3  reform4")
	for _, l := range out.Labels {
		cfg.printf("%-20s %s\n", l, fmtCurve(out.Curves[l], 3))
	}
	return out, cfg.saveCSV("figure10", out)
}

// Figure11 regenerates the rate-training curves: cosine similarity
// between the learned rate vector (UserVector) and the expert rates
// (ObjVector) across feedback iterations, for C_f in {0.1..0.9}. Larger
// C_f peaks faster; curves eventually dip from overfitting.
func Figure11(cfg Config) (*CurveResult, error) {
	cfg = cfg.withDefaults(surveyScale)
	return trainingCurves(cfg, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, 4, 5, "Figure 11")
}

// trainingCurves runs structure-only sessions and reports cosine
// training curves per C_f value, averaged over users and queries.
func trainingCurves(cfg Config, cfs []float64, users, queriesPerUser int, title string) (*CurveResult, error) {
	out := &CurveResult{Curves: map[string][]float64{}}
	queries := surveyQueries(queriesPerUser, 1)
	for _, cf := range cfs {
		label := fmt.Sprintf("Cf=%.1f", cf)
		sess := sim.DefaultSession(core.ReformulateOptions{Ce: 0, Cf: cf, Cd: 0.5})
		sess.Iterations = 5
		curve, err := surveyCurve(cfg, users, 20, queries, func(w *world, _, _ int, q *ir.Query) ([]float64, error) {
			res, err := sim.RunSession(w.sys, w.user, q, sess)
			if err != nil {
				return nil, err
			}
			return res.RateCosines(w.user.TruthRates()), nil
		})
		if err != nil {
			return nil, err
		}
		out.Labels = append(out.Labels, label)
		out.Curves[label] = curve
	}
	cfg.printf("%s: cosine(UserVector, ObjVector) per iteration\n", title)
	for _, l := range out.Labels {
		cfg.printf("%-8s %s\n", l, fmtCurve(out.Curves[l], 4))
	}
	name := "figure11"
	if strings.Contains(title, "13") {
		name = "figure13"
	}
	return out, cfg.saveCSV(name, out)
}

// Table2Result holds the ObjectRank2-vs-ObjectRank comparison.
type Table2Result struct {
	Queries []string
	OR2     []float64 // relevant results in the top-10, ObjectRank2
	OR      []float64 // same, modified original ObjectRank (Eq. 16)
	AvgOR2  float64
	AvgOR   float64
}

// Table2 regenerates the ObjectRank2 vs ObjectRank comparison on the
// paper's seven DBLP queries. Relevance uses a generator-independent
// topical proxy: a paper is relevant iff its title contains at least
// two distinct words from the pools of the query keywords' topics.
// Both systems rank under the expert rates; ObjectRank2's weighted base
// set gives it a (small, on short titles) edge — the paper reports
// 7.7 vs 7.5.
func Table2(cfg Config) (*Table2Result, error) {
	cfg = cfg.withDefaults(surveyScale)
	w, err := table2World(cfg)
	if err != nil {
		return nil, err
	}
	out := &Table2Result{Queries: table2Queries}
	cfg.printf("Table 2: relevant results in top-%d (topical relevance proxy)\n", table2K)
	cfg.printf("%-22s %12s %12s\n", "query", "ObjectRank2", "ObjectRank")
	pin := w.sys.Pin()
	for _, raw := range table2Queries {
		_, p2, p1, err := w.table2Row(pin, ir.ParseQuery(raw))
		if err != nil {
			return nil, err
		}
		out.OR2 = append(out.OR2, p2)
		out.OR = append(out.OR, p1)
		cfg.printf("%-22s %12.0f %12.0f\n", "["+raw+"]", p2, p1)
	}
	out.AvgOR2 = eval.Mean(out.OR2)
	out.AvgOR = eval.Mean(out.OR)
	cfg.printf("%-22s %12.2f %12.2f\n", "average", out.AvgOR2, out.AvgOR)
	return out, cfg.saveCSV("table2", out)
}

// table2Queries are the paper's seven Table 2 DBLP queries, judged by
// their relevant results in the top table2K.
var table2Queries = []string{
	"olap", "query optimization", "xml", "mining",
	"proximity search", "xml indexing", "ranked search",
}

const table2K = 10

// table2World is the DBLPtop world of Table 2 and its baselines
// extension: seeded cfg.Seed+1, with the system under the expert rates.
func table2World(cfg Config) (*world, error) {
	gen := datagen.DBLPTopConfig().Scale(cfg.Scale)
	gen.Seed = cfg.Seed + 1
	ds, err := datagen.GenerateDBLP(gen)
	if err != nil {
		return nil, err
	}
	return expertWorld(cfg, ds, "Paper", 20)
}

// table2Row judges q under pin: it returns q's relevant papers
// (topicalRelevance) and how many of them are in the top table2K of
// ObjectRank2 and of the Eq. 16 ObjectRank baseline.
func (w *world) table2Row(pin *core.Pinned, q *ir.Query) (relevant map[graph.NodeID]bool, or2, or1 float64, err error) {
	relevant = topicalRelevance(w.ds.Graph, w.resultType, q)
	r2, err := solveOne(pin, core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		return nil, 0, 0, err
	}
	r1, err := objectRankBaseline(pin, q)
	if err != nil {
		return nil, 0, 0, err
	}
	return relevant, w.relevantInTop(r2.Scores, relevant), w.relevantInTop(r1.Scores, relevant), nil
}

// relevantInTop counts the relevant nodes among the top table2K of w's
// result type by scores.
func (w *world) relevantInTop(scores []float64, relevant map[graph.NodeID]bool) float64 {
	n := 0
	for _, r := range rank.TopKOfType(w.ds.Graph, scores, w.resultType, table2K) {
		if relevant[r.Node] {
			n++
		}
	}
	return float64(n)
}

// topicalRelevance marks papers whose titles contain >= 2 distinct
// words from the union of the query keywords' topic pools.
func topicalRelevance(g *graph.Graph, paperType graph.TypeID, q *ir.Query) map[graph.NodeID]bool {
	pool := map[string]bool{}
	for _, term := range q.Terms() {
		if t := datagen.TopicByWord(term); t >= 0 {
			for _, w := range datagen.TopicWords(t) {
				pool[w] = true
			}
		} else {
			pool[term] = true
		}
	}
	rel := map[graph.NodeID]bool{}
	for _, p := range papersWithTwoOf(g, paperType, pool) {
		rel[p] = true
	}
	return rel
}

// papersWithTwoOf lists the nodes of paperType whose titles hold at
// least two distinct words of pool: the topical proxy of Table 2.
func papersWithTwoOf(g *graph.Graph, paperType graph.TypeID, pool map[string]bool) []graph.NodeID {
	var out []graph.NodeID
	for _, p := range g.NodesOfType(paperType) {
		distinct := map[string]bool{}
		for _, tok := range ir.Tokenize(g.Attr(p, "Title")) {
			if pool[tok] {
				distinct[tok] = true
			}
		}
		if len(distinct) >= 2 {
			out = append(out, p)
		}
	}
	return out
}

// Figure12 regenerates the external survey: structure-only
// reformulation with C_f = 0.5, 10 users with 2 queries each, average
// precision over 5 points.
func Figure12(cfg Config) (*CurveResult, error) {
	cfg = cfg.withDefaults(surveyScale)
	out := &CurveResult{Curves: map[string][]float64{}}
	var curves [][]float64
	queries := surveyQueries(2, 1)
	for ui := 0; ui < 10; ui++ {
		w, err := dblpWorld(cfg, cfg.Seed+100+int64(ui), 15+3*ui)
		if err != nil {
			return nil, err
		}
		userQueries := []string{
			queries[ui%len(queries)],
			strings.Join(datagen.TopicQuery((ui+3)%datagen.NumTopics(), 2), " "),
		}
		for _, raw := range userQueries {
			if err := w.reset(); err != nil {
				return nil, err
			}
			sess := sim.DefaultSession(core.StructureOnly())
			res, err := sim.RunSession(w.sys, w.user, ir.ParseQuery(raw), sess)
			if err != nil {
				return nil, err
			}
			curves = append(curves, res.Precisions())
		}
	}
	out.Labels = []string{"structure-only"}
	out.Curves["structure-only"] = meanCurves(curves)
	cfg.printf("Figure 12: external survey, structure-only (Cf=0.5) average precision\n")
	cfg.printf("%-20s %s\n", "structure-only", fmtCurve(out.Curves["structure-only"], 3))
	return out, cfg.saveCSV("figure12", out)
}

// Figure13 regenerates the external survey's rate-training curves
// (structure-only, the same C_f sweep as the internal one but with the
// external users' seeds).
func Figure13(cfg Config) (*CurveResult, error) {
	cfg = cfg.withDefaults(surveyScale)
	cfg.Seed += 100
	return trainingCurves(cfg, []float64{0.3, 0.5, 0.7}, 3, 2, "Figure 13")
}
