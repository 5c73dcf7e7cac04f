// Package sim simulates the paper's survey users (Section 6.1). The
// paper's subjects judged top-k results and selected feedback objects;
// the reformulation machinery then had to (a) improve
// residual-collection precision and (b) recover the expert-assigned
// authority transfer rates. A simulated user holds those expert rates
// as hidden ground truth: it judges a result relevant iff the result
// appears in the ideal top-R ranking computed under the hidden rates,
// and feeds the judged-relevant objects back. This substitutes an
// oracle for the human while testing exactly the same learning loop.
package sim

import (
	"context"
	"fmt"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// User is a simulated survey participant with hidden ground-truth
// authority transfer rates.
type User struct {
	truth *core.Engine
	// TopR is the ideal-ranking cutoff defining relevance: a result is
	// relevant iff it ranks in the user's ideal top R.
	TopR int
	// ResultType restricts judged results to one node type (papers in
	// the DBLP surveys); negative means all types.
	ResultType graph.TypeID

	relevantCache map[string]map[graph.NodeID]bool
}

// NewUser builds a simulated user over the same data graph the system
// queries, with the ground-truth rate assignment the training
// experiments try to recover.
func NewUser(g *graph.Graph, truth *graph.Rates, cfg core.Config, topR int, resultType graph.TypeID) (*User, error) {
	eng, err := core.NewEngine(g, truth, cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if topR <= 0 {
		topR = 20
	}
	return &User{
		truth:         eng,
		TopR:          topR,
		ResultType:    resultType,
		relevantCache: make(map[string]map[graph.NodeID]bool),
	}, nil
}

// TruthRates returns the user's hidden ground-truth rate vector (the
// ObjVector of Figures 11 and 13).
func (u *User) TruthRates() []float64 { return u.truth.Pin().Rates().Vector() }

// Relevant returns the set of objects the user considers relevant for
// the original query: the ideal top-R under the ground-truth rates.
// The judgment depends only on the user's information need (the initial
// query), not on the system's reformulations, so results are cached per
// query string.
func (u *User) Relevant(q *ir.Query) map[graph.NodeID]bool {
	key := q.String()
	if rel, ok := u.relevantCache[key]; ok {
		return rel
	}
	pin := u.truth.Pin()
	res, err := solveOne(pin, core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		panic(err) // a solve only fails when its context does
	}
	var top []rank.Ranked
	if u.ResultType >= 0 {
		top = res.TopKOfType(pin.Corpus().Graph(), u.ResultType, u.TopR)
	} else {
		top = res.TopK(u.TopR)
	}
	rel := make(map[graph.NodeID]bool, len(top))
	for _, r := range top {
		if r.Score > 0 {
			rel[r.Node] = true
		}
	}
	u.relevantCache[key] = rel
	return rel
}

// Judge returns the presented results the user marks relevant, in
// presentation order, up to maxFeedback objects (0 = unlimited).
func (u *User) Judge(presented []rank.Ranked, relevant map[graph.NodeID]bool, maxFeedback int) []graph.NodeID {
	var out []graph.NodeID
	for _, r := range presented {
		if relevant[r.Node] {
			out = append(out, r.Node)
			if maxFeedback > 0 && len(out) >= maxFeedback {
				break
			}
		}
	}
	return out
}

// SessionConfig parameterizes one relevance-feedback session: an
// initial query followed by reformulation iterations, mirroring the
// survey protocol of Section 6.1.
type SessionConfig struct {
	// K is the number of results shown per iteration (the paper uses
	// top-10 screens; precision is measured over these k).
	K int
	// Iterations is the number of REFORMULATED queries (the paper runs
	// 4, plotting initial + 4).
	Iterations int
	// Reformulate selects content-only / structure-only / combined and
	// the C_e, C_f, C_d factors.
	Reformulate core.ReformulateOptions
	// MaxFeedback bounds how many relevant results the user feeds back
	// per iteration (0 = all relevant ones shown).
	MaxFeedback int
	// WarmStart reuses the previous iteration's scores as the paper's
	// Section 6.2 optimization; disable for the cold-start ablation.
	WarmStart bool
	// Policy selects passive (paper protocol) or active ([SZ05]-style)
	// feedback-object selection.
	Policy FeedbackPolicy
}

// DefaultSession returns the paper's survey setting: k=10, 4
// reformulation iterations, L=3 explaining subgraphs, warm starts.
func DefaultSession(opts core.ReformulateOptions) SessionConfig {
	return SessionConfig{
		K:           10,
		Iterations:  4,
		Reformulate: opts,
		MaxFeedback: 3,
		WarmStart:   true,
	}
}

// IterationStats records one query iteration of a feedback session —
// the raw material of Figures 10–17 and Table 3.
type IterationStats struct {
	// Precision is the residual-collection precision of the top-k
	// screen at this iteration.
	Precision float64
	// RankIterations counts ObjectRank2 power iterations (Figures
	// 14b–17b); RankTime is stage (a) of Figures 14a–17a.
	RankIterations int
	RankTime       time.Duration
	// ExplainBuildTime (stage b), ExplainRunTime (stage c) and
	// ExplainIterations (Table 3) aggregate over the feedback objects
	// explained this iteration.
	ExplainBuildTime  time.Duration
	ExplainRunTime    time.Duration
	ExplainIterations float64
	// ReformulateTime is stage (d); with Ce > 0 it also covers the
	// subgraphs' Eq. 6 passes, which run on Eq. 11's first read of a
	// sum, so ExplainRunTime is Eq. 10 alone.
	ReformulateTime time.Duration
	// Feedback counts the objects the user fed back.
	Feedback int
	// Rates is the rate vector in force DURING this iteration's
	// ranking (before this iteration's reformulation), so entry 0 of a
	// session's curve is the untrained starting point and entry i
	// reflects i completed reformulations — the x-axis of the
	// Figure 11/13 training curves.
	Rates []float64
}

// SessionResult aggregates a full feedback session.
type SessionResult struct {
	// Iters has Iterations+1 entries: the initial query plus each
	// reformulated query.
	Iters []IterationStats
	// FinalQuery is the last reformulated query vector.
	FinalQuery *ir.Query
}

// Precisions returns the per-iteration precision curve.
func (s *SessionResult) Precisions() []float64 {
	out := make([]float64, len(s.Iters))
	for i := range s.Iters {
		out[i] = s.Iters[i].Precision
	}
	return out
}

// RateCosines returns the per-iteration cosine similarity between the
// session's learned rates and the given ground-truth vector.
func (s *SessionResult) RateCosines(truth []float64) []float64 {
	out := make([]float64, len(s.Iters))
	for i := range s.Iters {
		out[i] = eval.CosineSimilarity(s.Iters[i].Rates, truth)
	}
	return out
}

// RunSession executes one relevance-feedback session of the Section 6.1
// protocol against sys:
//
//	rank -> present top-k -> judge -> residual-precision -> explain
//	feedback objects -> reformulate -> publish rates -> repeat.
//
// sys's rates are published anew by each feedback round
// (Pinned.FeedbackCtx; that is the point of the training), and the next
// iteration ranks under the state the round published; callers own
// resetting the rates. The user's relevance judgment
// is fixed by the INITIAL query — reformulations must serve the
// original information need.
func RunSession(sys *core.Engine, user *User, q *ir.Query, cfg SessionConfig) (*SessionResult, error) {
	if cfg.K <= 0 {
		cfg.K = 10
	}
	relevant := user.Relevant(q)
	residual := eval.NewResidual()
	out := &SessionResult{}
	cur := q.Clone()
	var prevScores []float64

	// One pinned view per iteration — sys's state at first, then the
	// state each round published: the solve, the explanations and the
	// reformulation all read the same rates.
	pin := sys.Pin()
	for it := 0; it <= cfg.Iterations; it++ {
		var stats IterationStats
		stats.Rates = pin.Rates().Vector()

		// The first query starts from the global PageRank; later ones
		// from the previous scores (§6.2), or cold for the ablation.
		spec := core.SolveSpec{Queries: []*ir.Query{cur}, Cold: it > 0 && !cfg.WarmStart}
		if cfg.WarmStart && prevScores != nil {
			spec.Inits = [][]float64{prevScores}
		}
		t0 := time.Now()
		res, err := solveOne(pin, spec)
		if err != nil {
			return nil, err
		}
		stats.RankTime = time.Since(t0)
		stats.RankIterations = res.Iterations
		prevScores = res.Scores

		// Present the top-k screen over the residual collection.
		var ranked []rank.Ranked
		if user.ResultType >= 0 {
			ranked = res.TopKOfType(pin.Corpus().Graph(), user.ResultType, cfg.K+residualSlack)
		} else {
			ranked = res.TopK(cfg.K + residualSlack)
		}
		screen := residual.Filter(ranked)
		if len(screen) > cfg.K {
			screen = screen[:cfg.K]
		}
		residualRelevant := residual.FilterRelevant(relevant)
		stats.Precision = eval.PrecisionAtK(screen, residualRelevant, cfg.K)

		// Judge and select the feedback objects. Active selection judges
		// the whole screen and picks the structurally most diverse
		// subset; passive selection takes the first relevant results.
		var feedback []graph.NodeID
		if cfg.Policy == ActiveFeedback {
			candidates := user.Judge(screen, residualRelevant, 0)
			if len(candidates) > 0 {
				if feedback, err = selectActive(pin, res, candidates, cfg.MaxFeedback); err != nil {
					return nil, err
				}
			}
		} else {
			feedback = user.Judge(screen, residualRelevant, cfg.MaxFeedback)
		}
		stats.Feedback = len(feedback)
		residual.Remove(feedback...)

		if it == cfg.Iterations || len(feedback) == 0 {
			// Last iteration, or no feedback to reformulate from: the
			// session keeps the same query and rates.
			out.Iters = append(out.Iters, stats)
			continue
		}

		// One feedback round: explain each feedback object (stages b and
		// c), reformulate (stage d) and publish. Active selection's
		// explains kept the winners' topologies, so theirs run Eq. 10
		// alone.
		round, err := pin.FeedbackCtx(context.TODO(), cur, res, feedback, nil, cfg.Reformulate)
		if err != nil {
			return nil, err
		}
		for _, sg := range round.Subgraphs {
			stats.ExplainBuildTime += sg.BuildDuration
			stats.ExplainRunTime += sg.AdjustDuration
			stats.ExplainIterations += float64(sg.Iterations)
		}
		stats.ExplainIterations /= float64(len(round.Subgraphs))
		stats.ReformulateTime = round.ReformulateDur
		pin, cur = round.Pin, round.Reformulation.Query
		out.Iters = append(out.Iters, stats)
	}
	out.FinalQuery = cur
	return out, nil
}

// solveOne runs a one-column spec. RunSession's signature carries no
// context, so the solve cannot be cancelled.
func solveOne(pin *core.Pinned, spec core.SolveSpec) (*core.RankResult, error) {
	rs, err := pin.Solve(context.TODO(), spec)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// residualSlack over-fetches ranked results so that removing
// previously-seen objects still leaves a full k-screen.
const residualSlack = 30
