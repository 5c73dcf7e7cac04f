package datagen

import (
	"context"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

func smallDBLP(t testing.TB, seed int64) *Dataset {
	t.Helper()
	cfg := DBLPTopConfig().Scale(0.02)
	cfg.Seed = seed
	ds, err := GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateDBLPBasics(t *testing.T) {
	ds := smallDBLP(t, 1)
	g := ds.Graph
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	if err := ds.Rates.Validate(); err != nil {
		t.Fatalf("expert rates invalid: %v", err)
	}
	s := g.Schema()
	for _, name := range []string{"Paper", "Conference", "Year", "Author"} {
		id, ok := s.TypeByName(name)
		if !ok {
			t.Fatalf("missing node type %s", name)
		}
		if len(g.NodesOfType(id)) == 0 {
			t.Errorf("no %s nodes generated", name)
		}
	}
	// Every paper has a Title attribute with tokens.
	paperType, _ := s.TypeByName("Paper")
	for _, p := range g.NodesOfType(paperType)[:10] {
		if g.Attr(p, "Title") == "" {
			t.Errorf("paper %d has no title", p)
		}
	}
}

func TestGenerateDBLPDeterministic(t *testing.T) {
	a := smallDBLP(t, 7)
	b := smallDBLP(t, 7)
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different sizes")
	}
	for v := 0; v < a.Graph.NumNodes(); v += 97 {
		if a.Graph.Text(graph.NodeID(v)) != b.Graph.Text(graph.NodeID(v)) {
			t.Fatalf("same seed produced different node %d", v)
		}
	}
	c := smallDBLP(t, 8)
	diff := false
	for v := 0; v < a.Graph.NumNodes() && v < c.Graph.NumNodes(); v++ {
		if a.Graph.Text(graph.NodeID(v)) != c.Graph.Text(graph.NodeID(v)) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical graphs")
	}
}

func TestDBLPTopicKeywordsPresent(t *testing.T) {
	// The Table 2 query keywords must occur in the corpus so the
	// paper's benchmark queries have non-empty base sets.
	ds := smallDBLP(t, 1)
	ix := ir.BuildIndex(ds.Graph.NumNodes(), func(i int) string {
		return ds.Graph.Text(graph.NodeID(i))
	}, ir.DefaultBM25())
	for _, kw := range []string{"olap", "xml", "mining", "query", "optimization", "search", "index"} {
		if ix.DF(kw) == 0 {
			t.Errorf("keyword %q absent from generated corpus", kw)
		}
	}
}

func TestDBLPCitationHubsEmerge(t *testing.T) {
	ds := smallDBLP(t, 3)
	g := ds.Graph
	s := g.Schema()
	cites, _ := s.EdgeTypeByRole("cites")
	bwd := graph.TransferType(cites, graph.Backward)
	paperType, _ := s.TypeByName("Paper")
	maxIn, totalIn, papers := 0, 0, 0
	for _, p := range g.NodesOfType(paperType) {
		in := g.OutDeg(p, bwd) // backward arcs = incoming citations
		papers++
		totalIn += in
		if in > maxIn {
			maxIn = in
		}
	}
	if papers == 0 || totalIn == 0 {
		t.Fatal("no citations generated")
	}
	avg := float64(totalIn) / float64(papers)
	if float64(maxIn) < 4*avg {
		t.Errorf("no citation hubs: max in-degree %d vs avg %.2f", maxIn, avg)
	}
}

func TestDBLPScaleAndErrors(t *testing.T) {
	c := DBLPTopConfig().Scale(0.001)
	if c.Papers < 1 || c.Conferences < 1 {
		t.Errorf("Scale floored below 1: %+v", c)
	}
	if c.Conferences > c.Papers {
		t.Errorf("more conferences than papers: %+v", c)
	}
	if _, err := GenerateDBLP(DBLPConfig{}); err == nil {
		t.Error("zero config should error")
	}
	// Config with zero optional fields gets defaults.
	ds, err := GenerateDBLP(DBLPConfig{Papers: 10, Authors: 5, Conferences: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumNodes() == 0 {
		t.Error("defaults produced empty graph")
	}
}

func TestDBLPTableOneScale(t *testing.T) {
	// The full presets approximate Table 1's node counts; verify the
	// formulas at 10% scale (cheap) within loose bounds.
	cfg := DBLPTopConfig().Scale(0.1)
	ds, err := GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := cfg.Papers + cfg.Authors + cfg.Conferences + cfg.Conferences*cfg.YearsPerConf
	if got := ds.Graph.NumNodes(); got != wantNodes {
		t.Errorf("nodes = %d, want %d", got, wantNodes)
	}
	// Edge count is stochastic; the mean should land within 40% of
	// papers*(avgCitations+authors+1) + years.
	expected := float64(cfg.Papers)*(cfg.AvgCitations+float64(cfg.AuthorsPerPaper)/2+1.5) + float64(cfg.Conferences*cfg.YearsPerConf)
	got := float64(ds.Graph.NumEdges())
	if got < 0.5*expected || got > 1.6*expected {
		t.Errorf("edges = %v, expected around %v", got, expected)
	}
}

func smallBio(t testing.TB, cancer bool) *Dataset {
	t.Helper()
	var cfg BioConfig
	if cancer {
		cfg = DS7CancerConfig().Scale(0.05)
	} else {
		cfg = DS7Config().Scale(0.005)
	}
	ds, err := GenerateBio(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateBioBasics(t *testing.T) {
	ds := smallBio(t, false)
	g := ds.Graph
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty bio graph")
	}
	if err := ds.Rates.Validate(); err != nil {
		t.Fatalf("bio expert rates invalid: %v", err)
	}
	s := g.Schema()
	for _, name := range []string{"EntrezGene", "EntrezNucleotide", "EntrezProtein", "PubMed"} {
		id, ok := s.TypeByName(name)
		if !ok {
			t.Fatalf("missing node type %s", name)
		}
		if len(g.NodesOfType(id)) == 0 {
			t.Errorf("no %s nodes", name)
		}
	}
	if ds.Name != "ds7" {
		t.Errorf("name = %q", ds.Name)
	}
}

func TestGenerateBioCancerOnly(t *testing.T) {
	ds := smallBio(t, true)
	if ds.Name != "ds7cancer" {
		t.Errorf("name = %q", ds.Name)
	}
	// Every publication's abstract must be cancer-topical: spot-check
	// that cancer vocabulary dominates.
	g := ds.Graph
	pubType, _ := g.Schema().TypeByName("PubMed")
	pubs := g.NodesOfType(pubType)
	if len(pubs) == 0 {
		t.Fatal("no publications")
	}
	cancerWords := map[string]bool{}
	for _, w := range bioTopics[0] {
		cancerWords[w] = true
	}
	hits := 0
	for _, p := range pubs[:min(len(pubs), 50)] {
		for _, tok := range ir.Tokenize(g.Attr(p, "Abstract")) {
			if cancerWords[tok] {
				hits++
				break
			}
		}
	}
	if hits < 45 {
		t.Errorf("only %d/50 sampled abstracts mention cancer vocabulary", hits)
	}
}

func TestGenerateBioLongAbstracts(t *testing.T) {
	// The bio corpus must have much longer documents than DBLP titles —
	// the precondition for the paper's claim that IR weighting matters
	// more on DS7.
	bio := smallBio(t, false)
	dblp := smallDBLP(t, 1)
	// avdl is BM25's mean document length, in tokens.
	avdl := func(g *graph.Graph) float64 {
		total := 0
		for v := 0; v < g.NumNodes(); v++ {
			total += len(ir.Tokenize(g.Text(graph.NodeID(v))))
		}
		return float64(total) / float64(g.NumNodes())
	}
	if avdl(bio.Graph) < 1.5*avdl(dblp.Graph) {
		t.Errorf("bio avdl %.1f not much longer than dblp avdl %.1f", avdl(bio.Graph), avdl(dblp.Graph))
	}
}

func TestGenerateBioDeterministic(t *testing.T) {
	a := smallBio(t, true)
	b := smallBio(t, true)
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different bio graphs")
	}
}

func TestGenerateBioErrors(t *testing.T) {
	if _, err := GenerateBio(BioConfig{}); err == nil {
		t.Error("zero bio config should error")
	}
}

func TestTopicHelpers(t *testing.T) {
	if NumTopics() < 8 {
		t.Errorf("NumTopics = %d", NumTopics())
	}
	q := TopicQuery(0, 2)
	if len(q) != 2 || q[0] != "olap" {
		t.Errorf("TopicQuery = %v", q)
	}
	if got := TopicQuery(1, 0); len(got) != 1 {
		t.Errorf("TopicQuery with 0 terms = %v", got)
	}
	if got := TopicQuery(1, 999); len(got) != len(dbTopics[1]) {
		t.Errorf("TopicQuery clamp = %v", got)
	}
}

func TestConferenceNameFallback(t *testing.T) {
	if conferenceName(0) != "ICDE" {
		t.Errorf("conferenceName(0) = %q", conferenceName(0))
	}
	if got := conferenceName(999); !strings.HasPrefix(got, "CONF") {
		t.Errorf("conferenceName(999) = %q", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPreset(t *testing.T) {
	for _, name := range PresetNames() {
		ds, err := Preset(name, 0.01, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Graph.NumNodes() == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if err := ds.Rates.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Case-insensitive.
	if _, err := Preset("DBLPTop", 0.01, 1); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := Preset("bogus", 0.1, 1); err == nil {
		t.Error("bogus preset should error")
	}
	if len(PresetNames()) != 5 {
		t.Errorf("PresetNames = %v", PresetNames())
	}
}

// rankQ is one uncached authority solve of q on eng's current state.
func rankQ(t testing.TB, eng *core.Engine, q *ir.Query) *core.RankResult {
	t.Helper()
	rs, err := eng.Pin().Solve(context.Background(), core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}
