package experiments

import (
	"sync"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/sim"
)

// TimingIter is the per-iteration data of one Figures 14–17 panel: the
// four stacked stage times of panel (a) and the ObjectRank2 iteration
// count of panel (b).
type TimingIter struct {
	RankTime        time.Duration // (a) ObjectRank2 execution
	ExplainBuild    time.Duration // (a) explaining subgraph creation
	ExplainRun      time.Duration // (a) explaining ObjectRank2 execution
	ReformulateTime time.Duration // (a) query reformulation
	RankIterations  int           // (b)
}

// TimingResult is one dataset's Figure 14/15/16/17 reproduction.
type TimingResult struct {
	Dataset string
	Nodes   int
	Edges   int
	// Iters has one entry per query iteration: initial + 4 reformulated.
	Iters []TimingIter
}

// perfDataset identifies one of the four Table 1 corpora.
type perfDataset struct {
	name  string
	build func(cfg Config) (*datagen.Dataset, error)
	// query is a representative topical query with a healthy base set
	// on the corpus.
	query func() string
}

var perfDatasets = []perfDataset{
	{"DBLPcomplete", func(cfg Config) (*datagen.Dataset, error) {
		g := datagen.DBLPCompleteConfig().Scale(cfg.Scale)
		g.Seed = cfg.Seed + 1
		return datagen.GenerateDBLP(g)
	}, func() string { return "olap" }},
	{"DBLPtop", func(cfg Config) (*datagen.Dataset, error) {
		g := datagen.DBLPTopConfig().Scale(cfg.Scale)
		g.Seed = cfg.Seed + 1
		return datagen.GenerateDBLP(g)
	}, func() string { return "olap" }},
	{"DS7", func(cfg Config) (*datagen.Dataset, error) {
		g := datagen.DS7Config().Scale(cfg.Scale)
		g.Seed = cfg.Seed + 1
		return datagen.GenerateBio(g)
	}, func() string { return "cancer" }},
	{"DS7cancer", func(cfg Config) (*datagen.Dataset, error) {
		g := datagen.DS7CancerConfig().Scale(cfg.Scale)
		g.Seed = cfg.Seed + 1
		return datagen.GenerateBio(g)
	}, func() string { return "apoptosis" }},
}

// perfTopR gives the timing figures' simulated user a deep relevance
// pool so every one of the five displayed iterations has feedback to
// explain and reformulate (the paper's figures show full stage bars at
// each iteration). The precision values are irrelevant here — only the
// stage timings and iteration counts are reported.
const perfTopR = 60

// Figure14 regenerates the DBLPcomplete execution panel.
func Figure14(cfg Config) (*TimingResult, error) { return timingFigure(cfg, 0, "Figure 14") }

// Figure15 regenerates the DBLPtop execution panel.
func Figure15(cfg Config) (*TimingResult, error) { return timingFigure(cfg, 1, "Figure 15") }

// Figure16 regenerates the DS7 execution panel.
func Figure16(cfg Config) (*TimingResult, error) { return timingFigure(cfg, 2, "Figure 16") }

// Figure17 regenerates the DS7cancer execution panel.
func Figure17(cfg Config) (*TimingResult, error) { return timingFigure(cfg, 3, "Figure 17") }

// timingFigure reports the per-stage times of panel (a) and the
// warm-start iteration counts of panel (b) of one perfSession.
func timingFigure(cfg Config, which int, title string) (*TimingResult, error) {
	cfg = cfg.withDefaults(perfScale)
	run, err := perfSession(cfg, which)
	if err != nil {
		return nil, err
	}
	out := &TimingResult{Dataset: perfDatasets[which].name, Nodes: run.nodes, Edges: run.edges}
	for _, it := range run.iters {
		out.Iters = append(out.Iters, TimingIter{
			RankTime:        it.RankTime,
			ExplainBuild:    it.ExplainBuildTime,
			ExplainRun:      it.ExplainRunTime,
			ReformulateTime: it.ReformulateTime,
			RankIterations:  it.RankIterations,
		})
	}
	printTiming(cfg, title, out)
	name := map[int]string{0: "figure14", 1: "figure15", 2: "figure16", 3: "figure17"}[which]
	return out, cfg.saveCSV(name, out)
}

// perfRun is one perfSession's outcome: its dataset's size and the five
// displayed iterations, which callers only read.
type perfRun struct {
	nodes, edges int
	iters        []sim.IterationStats
}

// perfRuns keeps every perfSession run of the process by the settings
// it depends on, so Table 3 and Figures 14–17 read one session per
// dataset, whichever of them asks first.
var (
	perfMu   sync.Mutex
	perfRuns = map[perfKey]*perfRun{}
)

type perfKey struct {
	scale float64
	seed  int64
	which int
}

// perfSession runs the one relevance-feedback session of Figures 14–17
// and Table 3 on perfDatasets[which] under the expert rates
// (structure-based reformulation, radius-3 explanations, the paper's
// 0.002 threshold), once per process for each scale and seed. It runs
// one extra iteration, so all five displayed ones carry full
// explain/reformulate stage bars, as in the paper's stacked charts.
func perfSession(cfg Config, which int) (*perfRun, error) {
	perfMu.Lock()
	defer perfMu.Unlock()
	key := perfKey{cfg.Scale, cfg.Seed, which}
	if run, ok := perfRuns[key]; ok {
		return run, nil
	}
	pd := perfDatasets[which]
	ds, err := pd.build(cfg)
	if err != nil {
		return nil, err
	}
	w, err := expertWorld(cfg, ds, resultTypeFor(ds), perfTopR)
	if err != nil {
		return nil, err
	}
	sess := sim.DefaultSession(core.StructureOnly())
	sess.Iterations = 5
	sess.K = 30 // wide screens keep feedback available at every iteration
	sess.MaxFeedback = 2
	res, err := sim.RunSession(w.sys, w.user, ir.ParseQuery(pd.query()), sess)
	if err != nil {
		return nil, err
	}
	run := &perfRun{nodes: ds.Graph.NumNodes(), edges: ds.Graph.NumEdges(), iters: res.Iters[:len(res.Iters)-1]}
	perfRuns[key] = run
	return run, nil
}

func resultTypeFor(ds *datagen.Dataset) string {
	if _, ok := ds.Graph.Schema().TypeByName("Paper"); ok {
		return "Paper"
	}
	return "PubMed"
}

func printTiming(cfg Config, title string, r *TimingResult) {
	cfg.printf("%s: %s execution (%d nodes, %d edges, scale %.2f)\n",
		title, r.Dataset, r.Nodes, r.Edges, cfg.Scale)
	cfg.printf("(a) per-stage times and (b) ObjectRank2 iterations per query iteration\n")
	cfg.printf("%-10s %12s %14s %14s %12s %8s\n",
		"iteration", "objectrank2", "explain-build", "explain-run", "reformulate", "OR2-its")
	for i, it := range r.Iters {
		label := "initial"
		if i > 0 {
			label = "reform" + string(rune('0'+i))
		}
		cfg.printf("%-10s %12s %14s %14s %12s %8d\n",
			label, round(it.RankTime), round(it.ExplainBuild), round(it.ExplainRun),
			round(it.ReformulateTime), it.RankIterations)
	}
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

// Table3Result holds the explaining-ObjectRank2 iteration counts per
// dataset per feedback iteration.
type Table3Result struct {
	Datasets []string
	// Iters[d][i] is the average number of Equation 10 iterations for
	// dataset d at feedback iteration i (1-based in the paper's table).
	Iters [][]float64
}

// Table3 regenerates the average Explaining ObjectRank2 iteration
// counts over all four datasets and five feedback iterations.
func Table3(cfg Config) (*Table3Result, error) {
	cfg = cfg.withDefaults(perfScale)
	out := &Table3Result{}
	cfg.printf("Table 3: average explaining-ObjectRank2 iterations per feedback iteration\n")
	cfg.printf("%-14s %6s %6s %6s %6s %6s\n", "dataset", "1", "2", "3", "4", "5")
	for which, pd := range perfDatasets {
		run, err := perfSession(cfg, which)
		if err != nil {
			return nil, err
		}
		var row []float64
		for _, it := range run.iters {
			row = append(row, it.ExplainIterations)
		}
		out.Datasets = append(out.Datasets, pd.name)
		out.Iters = append(out.Iters, row)
		cfg.printf("%-14s %s\n", pd.name, fmtCurve(row, 1))
	}
	return out, nil
}
