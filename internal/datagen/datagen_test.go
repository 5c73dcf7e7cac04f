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
	counts := g.CountByType()
	for _, name := range []string{"Paper", "Conference", "Year", "Author"} {
		id, ok := s.TypeByName(name)
		if !ok {
			t.Fatalf("missing node type %s", name)
		}
		if counts[id] == 0 {
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
	counts := g.CountByType()
	for _, name := range []string{"EntrezGene", "EntrezNucleotide", "EntrezProtein", "PubMed"} {
		id, ok := s.TypeByName(name)
		if !ok {
			t.Fatalf("missing node type %s", name)
		}
		if counts[id] == 0 {
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
	for _, w := range bioTopics[0].Words {
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
	bioIx := ir.BuildIndex(bio.Graph.NumNodes(), func(i int) string { return bio.Graph.Text(graph.NodeID(i)) }, ir.DefaultBM25())
	dblpIx := ir.BuildIndex(dblp.Graph.NumNodes(), func(i int) string { return dblp.Graph.Text(graph.NodeID(i)) }, ir.DefaultBM25())
	if bioIx.AvgDocLen() < 1.5*dblpIx.AvgDocLen() {
		t.Errorf("bio avdl %.1f not much longer than dblp avdl %.1f", bioIx.AvgDocLen(), dblpIx.AvgDocLen())
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
	if TopicName(0) != "olap" {
		t.Errorf("TopicName(0) = %q", TopicName(0))
	}
	q := TopicQuery(0, 2)
	if len(q) != 2 || q[0] != "olap" {
		t.Errorf("TopicQuery = %v", q)
	}
	if got := TopicQuery(1, 0); len(got) != 1 {
		t.Errorf("TopicQuery with 0 terms = %v", got)
	}
	if got := TopicQuery(1, 999); len(got) != len(dbTopics[1].Words) {
		t.Errorf("TopicQuery clamp = %v", got)
	}
	if NumBioTopics() < 4 {
		t.Errorf("NumBioTopics = %d", NumBioTopics())
	}
	bq := BioTopicQuery(0, 1)
	if len(bq) != 1 || bq[0] != "cancer" {
		t.Errorf("BioTopicQuery = %v", bq)
	}
	if got := BioTopicQuery(0, 0); len(got) != 1 {
		t.Errorf("BioTopicQuery 0 terms = %v", got)
	}
	if got := BioTopicQuery(0, 999); len(got) != len(bioTopics[0].Words) {
		t.Errorf("BioTopicQuery clamp = %v", got)
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

func TestSubsetCancer(t *testing.T) {
	// Derive a cancer-focused subset from a mixed-topic bio corpus, the
	// way the paper derived DS7cancer from DS7.
	full := smallBio(t, false)
	sub, err := Subset(full, []string{"cancer"}, 1, "cancer-subset")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Name != "cancer-subset" {
		t.Errorf("name = %q", sub.Name)
	}
	if sub.Graph.NumNodes() == 0 || sub.Graph.NumNodes() >= full.Graph.NumNodes() {
		t.Fatalf("subset size %d of %d", sub.Graph.NumNodes(), full.Graph.NumNodes())
	}
	if sub.Graph.Schema() != full.Graph.Schema() {
		t.Error("subset must share the schema")
	}
	if err := sub.Rates.Validate(); err != nil {
		t.Error(err)
	}
	// Every kept node either mentions "cancer" or neighbors one that
	// does (radius 1).
	mentions := func(g *graph.Graph, v graph.NodeID) bool {
		for _, tok := range ir.Tokenize(g.Text(v)) {
			if tok == "cancer" {
				return true
			}
		}
		return false
	}
	for v := 0; v < sub.Graph.NumNodes(); v++ {
		id := graph.NodeID(v)
		if mentions(sub.Graph, id) {
			continue
		}
		ok := false
		for _, a := range sub.Graph.OutArcs(id) {
			if mentions(sub.Graph, a.To) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("node %d (%s) unrelated to cancer", v, sub.Graph.Display(id))
		}
	}
}

func TestSubsetDBLPTopic(t *testing.T) {
	full := smallDBLP(t, 1)
	sub, err := Subset(full, []string{"olap", "cube"}, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Name != "dblp-subset" {
		t.Errorf("default name = %q", sub.Name)
	}
	// The subset still answers the topical query.
	e, err := core.NewEngine(sub.Graph, sub.Rates, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := rankQ(t, e, ir.NewQuery("olap"))
	if len(res.Base) == 0 {
		t.Error("subset lost the anchor keyword nodes")
	}
}

func TestSubsetErrors(t *testing.T) {
	full := smallDBLP(t, 1)
	if _, err := Subset(full, nil, 1, ""); err == nil {
		t.Error("no keywords should error")
	}
	if _, err := Subset(full, []string{"olap"}, -1, ""); err == nil {
		t.Error("negative radius should error")
	}
	if _, err := Subset(full, []string{"zzzznothing"}, 1, ""); err == nil {
		t.Error("no matches should error")
	}
}

func TestSubsetRadiusMonotone(t *testing.T) {
	full := smallDBLP(t, 2)
	s0, err := Subset(full, []string{"olap"}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Subset(full, []string{"olap"}, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Subset(full, []string{"olap"}, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if !(s0.Graph.NumNodes() <= s1.Graph.NumNodes() && s1.Graph.NumNodes() <= s2.Graph.NumNodes()) {
		t.Errorf("subset sizes not monotone in radius: %d %d %d",
			s0.Graph.NumNodes(), s1.Graph.NumNodes(), s2.Graph.NumNodes())
	}
	// Radius 0 keeps only anchors: every node mentions the keyword.
	for v := 0; v < s0.Graph.NumNodes(); v++ {
		found := false
		for _, tok := range ir.Tokenize(s0.Graph.Text(graph.NodeID(v))) {
			if tok == "olap" {
				found = true
			}
		}
		if !found {
			t.Fatalf("radius-0 subset contains non-anchor %d", v)
		}
	}
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

func TestSubsetIdempotent(t *testing.T) {
	// Subsetting a subset with the same keywords and radius is a fixed
	// point: the first pass already kept exactly the anchor
	// neighborhood.
	full := smallDBLP(t, 4)
	s1, err := Subset(full, []string{"olap"}, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Subset(s1, []string{"olap"}, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Graph.NumNodes() != s1.Graph.NumNodes() || s2.Graph.NumEdges() != s1.Graph.NumEdges() {
		t.Errorf("subset not idempotent: %d/%d -> %d/%d",
			s1.Graph.NumNodes(), s1.Graph.NumEdges(), s2.Graph.NumNodes(), s2.Graph.NumEdges())
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
