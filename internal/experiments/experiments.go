// Package experiments regenerates every table and figure of the
// paper's evaluation section (Section 6) on the synthetic stand-in
// datasets: Table 1 (dataset statistics), Figures 10–13 (user-survey
// precision and rate-training curves), Table 2 (ObjectRank2 vs
// ObjectRank), Figures 14–17 (per-stage execution times and
// warm-start iteration counts on all four datasets), and Table 3
// (explaining-ObjectRank2 iteration counts).
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data); the experiments reproduce the SHAPES: which reformulation
// strategy wins, how the training curves rise and overfit, which
// pipeline stages dominate, and how warm starts cut iteration counts.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
	"authorityflow/internal/sim"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every dataset preset's entity counts. 1.0 is
	// paper scale (Table 1 sizes); the default 0.1 keeps full
	// regeneration runs in the minutes range.
	Scale float64
	// Seed offsets all generator seeds for variance studies.
	Seed int64
	// Out receives the rendered table/figure (defaults to io.Discard).
	Out io.Writer
	// CSVDir, when non-empty, makes each experiment also write its data
	// as <experiment>.csv into the directory (for plotting).
	CSVDir string
}

// withDefaults fills zero fields; defaultScale differs per experiment
// family (survey experiments need a corpus large enough that untrained
// and expert rankings visibly diverge; performance experiments favor a
// smaller default so full regeneration runs stay in the minutes range).
func (c Config) withDefaults(defaultScale float64) Config {
	if c.Scale == 0 {
		c.Scale = defaultScale
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// objectRankThreshold is the ObjectRank2 convergence threshold of the
// paper's performance experiments (§6.2).
const objectRankThreshold = 0.002

// Default scales per experiment family.
const (
	surveyScale = 0.3
	perfScale   = 0.1
)

func (c Config) engineConfig() core.Config {
	return core.Config{Rank: rank.Options{Damping: 0.85, Threshold: objectRankThreshold, MaxIters: 500}}
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// csvWriter is implemented by every experiment result that can render
// itself as CSV.
type csvWriter interface {
	WriteCSV(io.Writer) error
}

// saveCSV writes a result's CSV form into CSVDir (no-op when unset).
func (c Config) saveCSV(name string, r csvWriter) error {
	if c.CSVDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(c.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// world bundles one dataset with a fresh system engine (starting from
// untrained uniform rates) and a simulated expert user (holding the
// dataset's expert rates as ground truth).
type world struct {
	ds         *datagen.Dataset
	sys        *core.Engine
	user       *sim.User
	resultType graph.TypeID
	uniform    *graph.Rates
}

// dblpWorld builds a DBLPtop-scale world.
func dblpWorld(cfg Config, seed int64, topR int) (*world, error) {
	gen := datagen.DBLPTopConfig().Scale(cfg.Scale)
	gen.Seed = seed
	ds, err := datagen.GenerateDBLP(gen)
	if err != nil {
		return nil, err
	}
	return newWorld(cfg, ds, "Paper", topR)
}

func newWorld(cfg Config, ds *datagen.Dataset, resultTypeName string, topR int) (*world, error) {
	uniform := graph.UniformRates(ds.Graph.Schema(), 0.3)
	uniform.NormalizeOutgoing()
	sys, err := core.NewEngine(ds.Graph, uniform, cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	resultType := graph.TypeID(-1)
	if resultTypeName != "" {
		t, ok := ds.Graph.Schema().TypeByName(resultTypeName)
		if !ok {
			return nil, fmt.Errorf("experiments: no node type %q", resultTypeName)
		}
		resultType = t
	}
	user, err := sim.NewUser(ds.Graph, ds.Rates, cfg.engineConfig(), topR, resultType)
	if err != nil {
		return nil, err
	}
	return &world{ds: ds, sys: sys, user: user, resultType: resultType, uniform: uniform}, nil
}

// reset restores the system to the untrained uniform rates between
// sessions.
func (w *world) reset() error { return w.sys.SetRates(w.uniform) }

// solveOne runs a one-column spec under pin. Experiments run to
// completion, so there is no context to cancel it with.
func solveOne(pin *core.Pinned, spec core.SolveSpec) (*core.RankResult, error) {
	rs, err := pin.Solve(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// expertWorld builds a world whose SYSTEM also uses the expert rates —
// for experiments that measure performance rather than training.
func expertWorld(cfg Config, ds *datagen.Dataset, resultTypeName string, topR int) (*world, error) {
	w, err := newWorld(cfg, ds, resultTypeName, topR)
	if err != nil {
		return nil, err
	}
	if err := w.sys.SetRates(w.ds.Rates); err != nil {
		return nil, err
	}
	w.uniform = w.ds.Rates.Clone()
	return w, nil
}

// surveyCurve runs one session per simulated user and query, each from
// the untrained rates, and averages the curves run makes of them. User
// ui < users is the DBLPtop world seeded cfg.Seed+ui+1 that judges by
// its ideal top topR0+5·ui.
func surveyCurve(cfg Config, users, topR0 int, queries []string, run func(w *world, ui, qi int, q *ir.Query) ([]float64, error)) ([]float64, error) {
	var curves [][]float64
	for ui := 0; ui < users; ui++ {
		w, err := dblpWorld(cfg, cfg.Seed+int64(ui)+1, topR0+5*ui)
		if err != nil {
			return nil, err
		}
		for qi, raw := range queries {
			if err := w.reset(); err != nil {
				return nil, err
			}
			c, err := run(w, ui, qi, ir.ParseQuery(raw))
			if err != nil {
				return nil, err
			}
			curves = append(curves, c)
		}
	}
	return meanCurves(curves), nil
}

// surveyQueries are representative topic queries used by the simulated
// surveys (the paper's users chose their own).
func surveyQueries(n int, terms int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		kw := datagen.TopicQuery(i%datagen.NumTopics(), terms)
		out = append(out, strings.Join(kw, " "))
	}
	return out
}

// meanCurves averages a set of equal-length curves pointwise.
func meanCurves(curves [][]float64) []float64 {
	if len(curves) == 0 {
		return nil
	}
	out := make([]float64, len(curves[0]))
	for _, c := range curves {
		for i := range out {
			if i < len(c) {
				out[i] += c[i]
			}
		}
	}
	for i := range out {
		out[i] /= float64(len(curves))
	}
	return out
}

// fmtCurve renders a float series like "0.42 0.47 0.51".
func fmtCurve(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*f", prec, x)
	}
	return strings.Join(parts, " ")
}
