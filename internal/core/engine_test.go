package core

import (
	"math"
	"sync"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

func TestNewEngineValidation(t *testing.T) {
	f := newFixture(t)
	// Invalid rates (outgoing sum > 1) are rejected.
	bad := graph.UniformRates(f.g.Schema(), 0.4)
	if _, err := NewEngine(f.g, bad, Config{}); err == nil {
		t.Error("NewEngine should reject rates with outgoing sums > 1")
	}
	// Rates over a different schema are rejected.
	other, _, otherEdges := newDBLPSchema()
	or := figure3Rates(other, otherEdges)
	if _, err := NewEngine(f.g, or, Config{}); err == nil {
		t.Error("NewEngine should reject rates over a foreign schema")
	}
	e := f.newEngine(t)
	if err := e.SetRates(or); err == nil {
		t.Error("SetRates should reject rates over a foreign schema")
	}
	if err := e.SetRates(bad); err == nil {
		t.Error("SetRates should reject invalid rates")
	}
}

func TestBaseSetWeightedAndNormalized(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	base := e.Pin().BaseSet(q)
	// Exactly v1 and v4 contain "olap".
	if len(base) != 2 {
		t.Fatalf("base set = %v", base)
	}
	gotDocs := map[graph.NodeID]float64{}
	sum := 0.0
	for _, sd := range base {
		gotDocs[graph.NodeID(sd.Doc)] = sd.Score
		sum += sd.Score
		if sd.Score <= 0 {
			t.Errorf("doc %d has non-positive base weight", sd.Doc)
		}
	}
	if _, ok := gotDocs[f.ids["v1"]]; !ok {
		t.Error("v1 missing from base set")
	}
	if _, ok := gotDocs[f.ids["v4"]]; !ok {
		t.Error("v4 missing from base set")
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("base weights sum to %v, want 1", sum)
	}
	// Both titles contain "olap" once in near-equal-length documents, so
	// the weights are close to 0.5 each.
	for v, w := range gotDocs {
		if math.Abs(w-0.5) > 0.05 {
			t.Errorf("node %d base weight = %v, want ~0.5", v, w)
		}
	}
}

// TestFigure6Scores reproduces the paper's worked example: for
// Q=["OLAP"], d=0.85 and the Figure 3 rates, the converged ObjectRank2
// vector over v1..v7 is approximately
// [0.076, 0.002, 0.009, 0.076, 0.017, 0.025, 0.083] — in particular the
// "Data Cube" paper (v7) is ranked FIRST even though it does not
// contain the keyword.
func TestFigure6Scores(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	if !res.Converged {
		t.Fatal("did not converge")
	}
	want := map[string]float64{
		"v1": 0.076, "v2": 0.002, "v3": 0.009, "v4": 0.076,
		"v5": 0.025, "v6": 0.017, "v7": 0.083,
	}
	for name, ws := range want {
		got := res.Scores[f.ids[name]]
		if math.Abs(got-ws) > 0.01 {
			t.Errorf("score(%s) = %.4f, want ~%.3f", name, got, ws)
		}
	}
	top := res.TopK(1)
	if top[0].Node != f.ids["v7"] {
		t.Errorf("top result = %v, want v7 (Data Cube)", top[0].Node)
	}
	if res.InBase(f.ids["v7"]) {
		t.Error("v7 must not be in the base set")
	}
	if !res.InBase(f.ids["v1"]) {
		t.Error("v1 must be in the base set")
	}
}

func TestRankWarmMatchesColdFixpoint(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	cold := rankCold(e, q)
	warmInit := rankQ(e, ir.NewQuery("cubes"))
	warm := rankFrom(e, q, warmInit.Scores)
	for i := range cold.Scores {
		if math.Abs(cold.Scores[i]-warm.Scores[i]) > 1e-6 {
			t.Fatalf("warm/cold mismatch at %d: %v vs %v", i, cold.Scores[i], warm.Scores[i])
		}
	}
}

func TestEmptyBaseSet(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("zebra"))
	for i, s := range res.Scores {
		if s != 0 {
			t.Errorf("score[%d] = %v with empty base set", i, s)
		}
	}
	if len(res.Base) != 0 {
		t.Errorf("base = %v", res.Base)
	}
}

func TestTopKOfTypeFiltersPapers(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	top := res.TopKOfType(f.g, f.types["Paper"], 10)
	if len(top) != 4 {
		t.Fatalf("paper results = %v", top)
	}
	for _, r := range top {
		if f.g.Label(r.Node) != f.types["Paper"] {
			t.Errorf("non-paper %v in typed top-k", r.Node)
		}
	}
}

func TestGlobalRankCachedAndPositive(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	g1 := e.GlobalRank()
	g2 := e.GlobalRank()
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("GlobalRank should be deterministic/cached")
		}
		if g1[i] <= 0 {
			t.Errorf("global rank of node %d = %v, want > 0", i, g1[i])
		}
	}
	// Returned slice is a copy.
	g1[0] = 42
	if e.GlobalRank()[0] == 42 {
		t.Error("GlobalRank leaked internal storage")
	}
}

func TestSetRatesChangesRanking(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	before := rankQ(e, q).Scores[f.ids["v7"]]
	// Kill citation authority; v7 should collapse.
	r := e.Pin().Rates()
	r.Set(f.edges["cites"], graph.Forward, 0.0)
	if err := e.SetRates(r); err != nil {
		t.Fatal(err)
	}
	after := rankQ(e, q).Scores[f.ids["v7"]]
	if after >= before {
		t.Errorf("v7 score did not drop after zeroing cites: %v -> %v", before, after)
	}
}

func TestEngineAccessors(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	pin := e.Pin()
	if pin.Corpus().Graph() != f.g {
		t.Error("Graph accessor broken")
	}
	if ix := pin.Corpus().Index(); ix == nil || ix.NumDocs() != f.g.NumNodes() {
		t.Error("Index not built over all nodes")
	}
	// Rates accessor returns a clone.
	r := pin.Rates()
	r.Set(f.edges["cites"], graph.Forward, 0.0)
	if pin.Rates().Rate(graph.TransferType(f.edges["cites"], graph.Forward)) != 0.7 {
		t.Error("Rates leaked internal storage")
	}
	if pin.Corpus().Options().Damping != 0.85 {
		t.Error("Options lost")
	}
}

// TestParallelEngineMatchesSerial: one engine ranked and explained from
// several goroutines at once, sharing its buffer pool and rates
// snapshot, gives every caller the bits a lone caller gets.
func TestParallelEngineMatchesSerial(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	explainOpts := ExplainOptions{Threshold: 1e-9}
	want := rankQ(e, q)
	wantSG, err := explain(e, want, f.ids["v7"], explainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !wantSG.Converged || wantSG.ExplainedScore() <= 0 {
		t.Fatal("explain broken")
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				got := rankQ(e, q)
				for i := range want.Scores {
					if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
						t.Errorf("caller %d diverges at node %d: %v vs %v", c, i, got.Scores[i], want.Scores[i])
						return
					}
				}
				sg, err := explain(e, got, f.ids["v7"], explainOpts)
				if err != nil {
					t.Errorf("caller %d: %v", c, err)
					return
				}
				if sg.ExplainedScore() != wantSG.ExplainedScore() {
					t.Errorf("caller %d: explained score %v vs %v", c, sg.ExplainedScore(), wantSG.ExplainedScore())
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
