package sim

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// testWorld builds a small DBLP corpus, a system engine with uniform
// (untrained) rates, and a simulated user holding the expert rates as
// ground truth — the exact setup of the Section 6.1.1 training survey.
func testWorld(t testing.TB) (*core.Engine, *User, graph.TypeID) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.03)
	cfg.Seed = 5
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paperType, _ := ds.Graph.Schema().TypeByName("Paper")
	ecfg := core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}}

	// System starts from uniform 0.3 rates, normalized for validity
	// (the paper initializes all rates to 0.3).
	uniform := graph.UniformRates(ds.Graph.Schema(), 0.3)
	uniform.NormalizeOutgoing()
	sys, err := core.NewEngine(ds.Graph, uniform, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(ds.Graph, ds.Rates, ecfg, 20, paperType)
	if err != nil {
		t.Fatal(err)
	}
	return sys, user, paperType
}

func TestUserRelevantStableAndTyped(t *testing.T) {
	sys, user, paperType := testWorld(t)
	q := ir.NewQuery("olap")
	rel := user.Relevant(q)
	if len(rel) == 0 {
		t.Fatal("no relevant objects for a topic query")
	}
	for v := range rel {
		if sys.Pin().Corpus().Graph().Label(v) != paperType {
			t.Errorf("non-paper %d judged relevant", v)
		}
	}
	// Cached: same map on second call.
	rel2 := user.Relevant(q)
	if len(rel2) != len(rel) {
		t.Error("relevance judgment changed between calls")
	}
	if len(rel) > user.TopR {
		t.Errorf("more than TopR relevant: %d", len(rel))
	}
}

func TestUserJudge(t *testing.T) {
	_, user, _ := testWorld(t)
	rel := map[graph.NodeID]bool{1: true, 3: true, 5: true}
	presented := []rank.Ranked{{Node: 1}, {Node: 2}, {Node: 3}, {Node: 5}}
	got := user.Judge(presented, rel, 0)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("Judge = %v", got)
	}
	if got := user.Judge(presented, rel, 2); len(got) != 2 {
		t.Errorf("Judge with max 2 = %v", got)
	}
	if got := user.Judge(nil, rel, 0); len(got) != 0 {
		t.Errorf("Judge on empty = %v", got)
	}
}

func TestRunSessionStructureOnlyTrainsRates(t *testing.T) {
	sys, user, _ := testWorld(t)
	cfg := DefaultSession(core.StructureOnly())
	cfg.Iterations = 3
	res, err := RunSession(sys, user, ir.NewQuery("olap"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != cfg.Iterations+1 {
		t.Fatalf("iterations recorded = %d, want %d", len(res.Iters), cfg.Iterations+1)
	}
	// The learned rates must move TOWARD the ground truth: cosine
	// similarity strictly above the uniform-rates starting point at
	// some iteration (Figure 11's rising phase).
	truth := user.TruthRates()
	cosines := res.RateCosines(truth)
	start := eval.CosineSimilarity(sys.Pin().Rates().Vector(), truth) // post-session rates
	_ = start
	initial := eval.CosineSimilarity(uniformVector(sys, 0.3), truth)
	improved := false
	for _, c := range cosines {
		if c > initial+1e-6 {
			improved = true
			break
		}
	}
	if !improved {
		t.Errorf("cosine never improved over initial %v: %v", initial, cosines)
	}
	// Timings and iteration counts are recorded.
	if res.Iters[0].RankIterations <= 0 {
		t.Error("missing rank iteration count")
	}
	if res.Iters[0].Feedback > 0 && res.Iters[0].ExplainIterations <= 0 {
		t.Error("missing explain iteration count")
	}
	if res.FinalQuery == nil {
		t.Error("missing final query")
	}
}

func uniformVector(sys *core.Engine, v float64) []float64 {
	u := graph.UniformRates(sys.Pin().Corpus().Graph().Schema(), v)
	u.NormalizeOutgoing()
	return u.Vector()
}

func TestRunSessionContentOnlyKeepsRates(t *testing.T) {
	sys, user, _ := testWorld(t)
	before := sys.Pin().Rates().Vector()
	cfg := DefaultSession(core.ContentOnly())
	cfg.Iterations = 2
	res, err := RunSession(sys, user, ir.NewQuery("xml"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := sys.Pin().Rates().Vector()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("content-only session changed rates")
		}
	}
	// The query must have been expanded if any feedback occurred.
	fed := 0
	for _, it := range res.Iters {
		fed += it.Feedback
	}
	if fed > 0 && res.FinalQuery.Len() <= 1 {
		t.Errorf("no expansion despite %d feedback objects: %v", fed, res.FinalQuery)
	}
}

func TestRunSessionResidualNeverRepeatsFeedback(t *testing.T) {
	sys, user, paperType := testWorld(t)
	cfg := DefaultSession(core.StructureOnly())
	cfg.Iterations = 4
	q := ir.NewQuery("mining")
	// Track all feedback objects via a wrapper: run the session, then
	// verify the same object never got fed back twice by re-simulating
	// the bookkeeping through precision values (feedback counts bounded
	// by remaining relevant objects).
	rel := user.Relevant(q)
	res, err := RunSession(sys, user, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, it := range res.Iters {
		total += it.Feedback
	}
	if total > len(rel) {
		t.Errorf("fed back %d objects but only %d are relevant — repeats occurred", total, len(rel))
	}
	_ = paperType
}

func TestRunSessionNoRelevantResults(t *testing.T) {
	sys, user, _ := testWorld(t)
	cfg := DefaultSession(core.StructureOnly())
	cfg.Iterations = 2
	// A nonsense query has an empty base set, no results, no feedback;
	// the session must still complete with zero precision.
	res, err := RunSession(sys, user, ir.NewQuery("zzzqqq"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.Iters {
		if it.Precision != 0 {
			t.Errorf("iteration %d precision = %v", i, it.Precision)
		}
		if it.Feedback != 0 {
			t.Errorf("iteration %d feedback = %d", i, it.Feedback)
		}
	}
}

func TestRunSessionWarmStartReducesIterations(t *testing.T) {
	// Figures 14b–17b: reformulated queries converge faster with warm
	// starts. Compare total rank iterations warm vs cold.
	sysW, userW, _ := testWorld(t)
	cfgW := DefaultSession(core.StructureOnly())
	cfgW.Iterations = 3
	warm, err := RunSession(sysW, userW, ir.NewQuery("olap"), cfgW)
	if err != nil {
		t.Fatal(err)
	}
	sysC, userC, _ := testWorld(t)
	cfgC := cfgW
	cfgC.WarmStart = false
	cold, err := RunSession(sysC, userC, ir.NewQuery("olap"), cfgC)
	if err != nil {
		t.Fatal(err)
	}
	warmIters, coldIters := 0, 0
	for i := 1; i < len(warm.Iters); i++ { // skip the initial query
		warmIters += warm.Iters[i].RankIterations
	}
	for i := 1; i < len(cold.Iters); i++ {
		coldIters += cold.Iters[i].RankIterations
	}
	if warmIters > coldIters {
		t.Errorf("warm start used more iterations (%d) than cold (%d)", warmIters, coldIters)
	}
}

func TestNewUserValidation(t *testing.T) {
	ds, err := datagen.GenerateDBLP(datagen.DBLPConfig{Papers: 20, Authors: 10, Conferences: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := graph.UniformRates(ds.Graph.Schema(), 0.9)
	if _, err := NewUser(ds.Graph, bad, core.Config{}, 10, -1); err == nil {
		t.Error("NewUser should reject invalid rates")
	}
	u, err := NewUser(ds.Graph, ds.Rates, core.Config{}, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if u.TopR != 20 {
		t.Errorf("TopR default = %d", u.TopR)
	}
	// ResultType -1 judges across all types. Query with a token that is
	// guaranteed to exist in this tiny corpus: one from a paper title.
	paperType, _ := ds.Graph.Schema().TypeByName("Paper")
	title := ds.Graph.Attr(ds.Graph.NodesOfType(paperType)[0], "Title")
	tok := ir.TokenizeFiltered(title)[0]
	rel := u.Relevant(ir.NewQuery(tok))
	if len(rel) == 0 {
		t.Error("untyped relevance empty")
	}
}

// TestSessionIndependentOfParallelism: a session explains its feedback
// objects (and an active session its candidates) concurrently, so one
// run on a single P and one on the default GOMAXPROCS must give the
// same precision curve and the same rates at every iteration, bit for
// bit, under both feedback policies.
func TestSessionIndependentOfParallelism(t *testing.T) {
	run := func(policy FeedbackPolicy, procs int) *SessionResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sys, user, _ := testWorld(t)
		cfg := DefaultSession(core.ContentAndStructure())
		cfg.Iterations = 3
		cfg.Policy = policy
		res, err := RunSession(sys, user, ir.NewQuery("olap"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, policy := range []FeedbackPolicy{PassiveFeedback, ActiveFeedback} {
		serial, parallel := run(policy, 1), run(policy, runtime.GOMAXPROCS(0))
		if len(serial.Iters) != len(parallel.Iters) {
			t.Fatalf("policy %d: %d iterations on one P, %d on all", policy, len(serial.Iters), len(parallel.Iters))
		}
		if !bitsEqual(serial.Precisions(), parallel.Precisions()) {
			t.Errorf("policy %d: precisions %v on one P, %v on all", policy, serial.Precisions(), parallel.Precisions())
		}
		fed := 0
		for i := range serial.Iters {
			fed += serial.Iters[i].Feedback
			if !bitsEqual(serial.Iters[i].Rates, parallel.Iters[i].Rates) {
				t.Errorf("policy %d iteration %d: rates differ between one P and all", policy, i)
			}
		}
		if fed < 2 {
			t.Fatalf("policy %d: %d feedback objects in the session, too few to explain concurrently", policy, fed)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
