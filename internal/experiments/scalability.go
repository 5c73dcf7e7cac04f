package experiments

import (
	"context"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
)

// ScalePoint is one row of the scalability sweep.
type ScalePoint struct {
	Scale      float64
	Nodes      int
	Edges      int
	BuildTime  time.Duration // datagen + CSR freeze + index
	QueryTime  time.Duration // one cold ObjectRank2 execution
	ExplainAll time.Duration // explaining the top result (build + adjust)
	Iterations int
}

// ScalabilityResult is the full sweep.
type ScalabilityResult struct {
	Points []ScalePoint
}

// ExtensionScalability quantifies the paper's feasibility claim
// ("explaining query results and reformulating authority flow queries
// are feasible over large graphs"): a sweep over DBLPcomplete scale
// factors measuring corpus build time, cold ObjectRank2 query time with
// its iteration count, and end-to-end explanation time of the top
// result. Near-linear growth in edges is the expectation — each power
// iteration is one scan of the transfer arcs.
func ExtensionScalability(cfg Config) (*ScalabilityResult, error) {
	cfg = cfg.withDefaults(perfScale)
	// The sweep tops out at the configured scale, stepping down by
	// halves so one -scale flag controls the whole range.
	scales := []float64{cfg.Scale / 8, cfg.Scale / 4, cfg.Scale / 2, cfg.Scale}
	out := &ScalabilityResult{}
	cfg.printf("Extension: scalability sweep on DBLPcomplete\n")
	cfg.printf("%8s %10s %10s %12s %12s %12s %8s\n",
		"scale", "nodes", "edges", "build", "query", "explain", "OR2-its")
	for _, sc := range scales {
		gen := datagen.DBLPCompleteConfig().Scale(sc)
		gen.Seed = cfg.Seed + 1

		t0 := time.Now()
		ds, err := datagen.GenerateDBLP(gen)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(ds.Graph, ds.Rates, cfg.engineConfig())
		if err != nil {
			return nil, err
		}
		build := time.Since(t0)

		q := ir.NewQuery("olap")
		t1 := time.Now()
		res, err := solveOne(eng, core.SolveSpec{Queries: []*ir.Query{q}, Cold: true})
		if err != nil {
			return nil, err
		}
		queryTime := time.Since(t1)

		var explainTime time.Duration
		top := res.TopK(1)
		if len(top) > 0 && top[0].Score > 0 {
			sg, err := eng.Pin().ExplainCtx(context.Background(), res, top[0].Node, core.DefaultExplain())
			if err != nil {
				return nil, err
			}
			explainTime = sg.BuildDuration + sg.AdjustDuration
		}

		p := ScalePoint{
			Scale:      sc,
			Nodes:      ds.Graph.NumNodes(),
			Edges:      ds.Graph.NumEdges(),
			BuildTime:  build,
			QueryTime:  queryTime,
			ExplainAll: explainTime,
			Iterations: res.Iterations,
		}
		out.Points = append(out.Points, p)
		cfg.printf("%8.3f %10d %10d %12s %12s %12s %8d\n",
			p.Scale, p.Nodes, p.Edges, round(p.BuildTime), round(p.QueryTime),
			round(p.ExplainAll), p.Iterations)
	}
	return out, nil
}
