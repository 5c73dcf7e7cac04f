package profile

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// solveOne is one uncached solve under a background context.
func solveOne(t testing.TB, pin *core.Pinned, spec core.SolveSpec) *core.RankResult {
	t.Helper()
	rs, err := pin.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func testEngine(t testing.TB, opts rank.Options) (*datagen.Dataset, *core.Engine) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{Rank: opts})
	if err != nil {
		t.Fatal(err)
	}
	return ds, eng
}

func TestCodecRoundtrip(t *testing.T) {
	p := &Profile{
		ID:                  "user-42.test_A",
		Mixture:             map[string]float64{"mining": 0.6, "database": 0.3, "xml": 0.1},
		Beta:                0.25,
		Rev:                 7,
		TrainedGeneration:   3,
		TrainedRatesVersion: 11,
	}
	data := p.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.Beta != p.Beta || got.Rev != p.Rev ||
		got.TrainedGeneration != p.TrainedGeneration || got.TrainedRatesVersion != p.TrainedRatesVersion {
		t.Fatalf("meta mismatch: %+v vs %+v", got, p)
	}
	if len(got.Mixture) != len(p.Mixture) {
		t.Fatalf("mixture size %d, want %d", len(got.Mixture), len(p.Mixture))
	}
	for term, w := range p.Mixture {
		if got.Mixture[term] != w {
			t.Fatalf("mixture[%s] = %v, want %v", term, got.Mixture[term], w)
		}
	}
}

// TestLegacyDeltaRecordDecodes: a record written while profiles still
// learned a rates-delta (checked in as a FuzzProfileDecode seed, encoded
// by that writer) carries a third section. It still decodes to the same
// id, mixture, beta, rev and trained stamps, and re-encodes with the two
// sections the codec writes now.
func TestLegacyDeltaRecordDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzProfileDecode", "legacy-delta"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("not a fuzz corpus file: %q", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	if sections := binary.LittleEndian.Uint32([]byte(data)[12:]); sections != 3 {
		t.Fatalf("seed has %d sections, want the legacy 3", sections)
	}
	got, err := Decode([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	want := &Profile{ID: "user-42", Beta: 0.4, Rev: 5, TrainedGeneration: 1, TrainedRatesVersion: 6,
		Mixture: map[string]float64{"icde": 0.6854726028636684, "measures": 0.18952739713633168, "streaming": 0.125}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	enc := got.Encode()
	if sections := binary.LittleEndian.Uint32(enc[12:]); sections != 2 {
		t.Fatalf("re-encoded with %d sections, want 2", sections)
	}
	again, err := Decode(enc)
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("re-encoded record decodes to %+v (%v), want %+v", again, err, want)
	}
}

func TestCodecRejectsDamage(t *testing.T) {
	p := &Profile{ID: "victim", Mixture: map[string]float64{"mining": 1}}
	data := p.Encode()

	if _, err := Decode(data[:10]); err == nil {
		t.Fatal("truncated record decoded")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic decoded")
	}
	// Flip one payload byte: the section checksum must catch it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0xff
	if _, err := Decode(flipped); err == nil {
		t.Fatal("checksum-damaged record decoded")
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"a", "user-1", "A.B_c-9", string(bytes.Repeat([]byte{'x'}, 128))} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "a/b", "a b", "a\\b", "é", string(bytes.Repeat([]byte{'x'}, 129))} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true, want false", bad)
		}
	}
}

func TestDiskStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("ghost"); err != ErrNotFound {
		t.Fatalf("missing profile: err = %v, want ErrNotFound", err)
	}
	p := &Profile{ID: "alice", Mixture: map[string]float64{"mining": 1}, Rev: 3}
	if err := s.Save(p); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "alice" || got.Rev != 3 {
		t.Fatalf("loaded %+v", got)
	}
	// Atomic write discipline: no temp files linger.
	if matches, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp")); len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
	if err := s.Delete("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("alice"); err != ErrNotFound {
		t.Fatalf("deleted profile: err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("alice"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestCombineAgreesWithDirectSolve is the acceptance-criteria agreement
// check: the blended personalized vector must match a direct power
// iteration over the SAME personalized jump distribution to ≤1e-9
// elementwise. Both sides run at threshold 1e-12, far below the
// agreement bound, so the residual convergence slack cannot mask a
// blend error.
func TestCombineAgreesWithDirectSolve(t *testing.T) {
	opts := rank.Options{Threshold: 1e-12, MaxIters: 3000}
	_, eng := testEngine(t, opts)
	m, err := NewManager(eng, Options{Dir: t.TempDir(), BasisSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx, pin := context.Background(), eng.Pin()
	basis, err := m.BasisFor(ctx, pin)
	if err != nil {
		t.Fatal(err)
	}
	terms := basis.Terms()
	if len(terms) < 3 {
		t.Fatalf("panel too small: %d terms", len(terms))
	}
	mixture := map[string]float64{terms[0]: 0.5, terms[1]: 0.3, terms[2]: 0.2}
	const beta = 0.35

	q := ir.NewQuery(terms[0], terms[1])
	qres := solveOne(t, pin, core.SolveSpec{Queries: []*ir.Query{q}})
	combined, err := m.Blend(ctx, pin, qres.Scores, mixture, beta)
	if err != nil {
		t.Fatal(err)
	}

	jump := basis.MixtureJump(pin, qres.Base, mixture, beta)
	direct := solveOne(t, pin, core.SolveSpec{Jump: jump, Cold: true})
	if !direct.Converged {
		t.Fatal("direct solve did not converge")
	}
	maxDiff := 0.0
	for i := range combined {
		if d := math.Abs(combined[i] - direct.Scores[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-9 {
		t.Fatalf("combined vs direct solve disagree: max elementwise diff %g > 1e-9", maxDiff)
	}
	t.Logf("max elementwise diff: %g", maxDiff)
	eng.Release(qres)
	eng.Release(direct)
}

// TestBasisSharesCacheVectors: a blend reads its term vectors through
// the manager's serving cache — the resident ones as they are, the rest
// solved in ONE kernel execution and kept — so it equals a blend of the
// cache's own arrays bit for bit, and a second blend solves nothing.
func TestBasisSharesCacheVectors(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := cache.New(eng, cache.Options{})
	m, err := NewManager(eng, Options{Dir: t.TempDir(), BasisSize: 16, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx, pin := context.Background(), eng.Pin()
	eng.GlobalRank() // take the warm-start solve out of the picture
	panel := BasisTerms(pin, 16)
	mixture := make(map[string]float64)
	for i, term := range panel[:6] {
		mixture[term] = float64(i + 1)
	}
	const resident = 2
	for _, term := range panel[:resident] {
		res, err := c.RankPinnedCtx(ctx, pin, ir.NewQuery(term))
		if err != nil {
			t.Fatal(err)
		}
		eng.Release(res)
	}
	qres := solveOne(t, pin, core.SolveSpec{Queries: []*ir.Query{ir.NewQuery(panel[7])}})
	defer eng.Release(qres)

	var solves, columns int
	eng.SetSolveHook(func(st core.SolveStats) { solves, columns = solves+1, columns+st.Columns })
	blended, err := m.Blend(ctx, pin, qres.Scores, mixture, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if missing := len(mixture) - resident; solves != 1 || columns != missing {
		t.Errorf("blend of %d terms, %d resident: %d kernel executions of %d columns, want 1 of %d", len(mixture), resident, solves, columns, missing)
	}
	again, err := m.Blend(ctx, pin, qres.Scores, mixture, 0.4)
	eng.SetSolveHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if solves != 1 {
		t.Errorf("a second blend of resident terms ran %d more kernel executions", solves-1)
	}

	// The reference blend: the cache's resident arrays themselves, in
	// panel order, with the mixture normalized in that order.
	w, vs := []float64{1 - 0.4}, [][]float64{qres.Scores}
	sum := 0.0
	for _, term := range panel[:6] {
		sum += mixture[term]
	}
	for _, term := range panel[:6] {
		res, err := c.RankPinnedCtx(ctx, pin, ir.NewQuery(term))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Shared {
			t.Fatalf("%s: the cache did not hand out its resident vector", term)
		}
		w, vs = append(w, 0.4*(mixture[term]/sum)), append(vs, res.Scores)
	}
	want := rank.Combine(make([]float64, len(qres.Scores)), w, vs)
	for v, x := range want {
		if math.Float64bits(x) != math.Float64bits(blended[v]) || math.Float64bits(x) != math.Float64bits(again[v]) {
			t.Fatalf("node %d: blend %v, again %v, blend of the cache's vectors %v", v, blended[v], again[v], x)
		}
	}
}

func TestManagerLifecycle(t *testing.T) {
	opts := rank.Options{Threshold: 1e-8, MaxIters: 300}
	_, eng := testEngine(t, opts)
	m, err := NewManager(eng, Options{Dir: t.TempDir(), BasisSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("nobody"); err != ErrNotFound {
		t.Fatalf("Get(nobody) = %v, want ErrNotFound", err)
	}
	if _, _, err := m.QueryCtx(context.Background(), eng.Pin(), "nobody", ir.NewQuery("mining"), 10); err != ErrNotFound {
		t.Fatalf("QueryCtx(nobody) = %v, want ErrNotFound", err)
	}

	created, err := m.Put(&Profile{ID: "u1"})
	if err != nil {
		t.Fatal(err)
	}
	if created.Rev != 1 {
		t.Fatalf("fresh profile rev = %d, want 1", created.Rev)
	}

	pin := eng.Pin()
	q := ir.NewQuery("mining")
	a, src, err := m.QueryCtx(context.Background(), pin, "u1", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceGlobal || a.Source != string(src) {
		t.Fatalf("untrained profile served %v (answer source %q), want global", src, a.Source)
	}
	if a.Generation != pin.Generation() {
		t.Fatalf("answer generation %d, want %d", a.Generation, pin.Generation())
	}
	baseline := append([]cache.ResultItem(nil), a.Results...)

	// Train on explain subgraphs of the top answers.
	res := solveOne(t, pin, core.SolveSpec{Queries: []*ir.Query{q}})
	var feedback []*core.Subgraph
	for _, r := range res.TopK(2) {
		sg, err := pin.ExplainCtx(context.Background(), res, r.Node, core.DefaultExplain())
		if err != nil {
			t.Fatal(err)
		}
		feedback = append(feedback, sg)
	}
	eng.Release(res)
	ref, trained, err := m.TrainCtx(context.Background(), pin, "u1", q, feedback, nil, core.ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	if ref == nil || trained.Rev != created.Rev+1 {
		t.Fatalf("training did not bump rev: %+v", trained)
	}
	if len(trained.Mixture) == 0 {
		t.Fatal("training produced an empty mixture")
	}
	if trained.TrainedGeneration != pin.Generation() || trained.TrainedRatesVersion != pin.Version() {
		t.Fatalf("trained stamps %d/%d, want %d/%d",
			trained.TrainedGeneration, trained.TrainedRatesVersion, pin.Generation(), pin.Version())
	}

	a2, src2, err := m.QueryCtx(context.Background(), pin, "u1", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceCombined || a2.Source != string(src2) {
		t.Fatalf("trained profile served %v (answer source %q), want combined", src2, a2.Source)
	}
	same := len(a2.Results) == len(baseline)
	if same {
		for i := range baseline {
			if a2.Results[i] != baseline[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("personalized answer identical to the global baseline after training")
	}

	// Second identical query: a hit on the profile-scoped result entry,
	// whose Results are the very items the blend stored.
	a3, src3, err := m.QueryCtx(context.Background(), pin, "u1", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	shared := len(a3.Results) > 0 && len(a3.Results) == len(a2.Results) && &a3.Results[0] == &a2.Results[0]
	if src3 != SourceHit || !shared || a3.Source != string(src3) {
		t.Fatalf("repeat query served %v (shared=%v, answer source %q), want LRU hit", src3, shared, a3.Source)
	}

	// Durability: a fresh manager over the same dir sees the trained
	// profile without sharing any memory.
	m2, err := NewManager(eng, Options{Dir: m.disk.dir})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := m2.Get("u1")
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Rev != trained.Rev || len(reloaded.Mixture) != len(trained.Mixture) {
		t.Fatalf("reloaded profile %+v, want %+v", reloaded, trained)
	}

	st := m.Stats()
	if st.Trains != 1 || st.Combines < 2 || st.AnswerHits != 1 || st.BasisTerms != 48 || st.BasisGeneration != pin.Generation() {
		t.Fatalf("stats %+v", st)
	}

	if err := m.Delete("u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("u1"); err != ErrNotFound {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
}

// TestManagerRequiresDir: a manager without a durable store would keep
// profiles only in its bounded LRU and answer 404 for any it evicted,
// so an empty Dir is refused by name.
func TestManagerRequiresDir(t *testing.T) {
	_, eng := testEngine(t, rank.Options{Threshold: 1e-6, MaxIters: 300})
	m, err := NewManager(eng, Options{BasisSize: 16})
	if err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("NewManager without Dir = (%v, %v), want an error naming Dir", m, err)
	}
}

// scaledRates returns eng's rates with the first positive rate scaled by
// f: a publish that changes the rates fingerprint.
func scaledRates(t testing.TB, eng *core.Engine, f float64) *graph.Rates {
	t.Helper()
	r := eng.Pin().Rates()
	v := r.Vector()
	for i, x := range v {
		if x > 0 {
			v[i] = x * f
			break
		}
	}
	if err := r.SetVector(v); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestProfileQueryAfterPublish: a rates publish changes the serving
// cache's keys, and the first personalized query after it solves only
// the vectors its answer reads — its query's and its mixture terms',
// warm-started from the previous rates' — never the whole panel. Its
// answer equals a fresh blend of vectors solved cold under the new
// rates. After the next publish, an untrained profile's first query
// solves its query alone.
func TestProfileQueryAfterPublish(t *testing.T) {
	opts := rank.Options{Threshold: 1e-12, MaxIters: 3000}
	ds, eng := testEngine(t, opts)
	c := cache.New(eng, cache.Options{})
	m, err := NewManager(eng, Options{Dir: t.TempDir(), Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	panel := BasisTerms(eng.Pin(), 0)
	mixture := map[string]float64{panel[3]: 0.5, panel[9]: 0.3, panel[20]: 0.2}
	trained := &Profile{ID: "trained", Mixture: mixture, Beta: 0.4}
	for _, p := range []*Profile{trained, {ID: "blank"}} {
		if _, err := m.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	q1, q2 := ir.NewQuery(panel[0]), ir.NewQuery(panel[1])
	if _, _, err := m.QueryCtx(ctx, eng.Pin(), "trained", q1, 10); err != nil {
		t.Fatal(err)
	}

	published := scaledRates(t, eng, 0.9)
	if err := eng.SetRates(published); err != nil {
		t.Fatal(err)
	}
	var columns int
	eng.SetSolveHook(func(st core.SolveStats) { columns += st.Columns })
	defer eng.SetSolveHook(nil)
	ask := func(id string, q *ir.Query, most int) *cache.Answer {
		t.Helper()
		columns = 0
		a, _, err := m.QueryCtx(ctx, eng.Pin(), id, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if columns > most {
			t.Errorf("profile %s: the first query after a publish ran %d kernel columns, want at most %d", id, columns, most)
		}
		return a
	}
	warm := c.Stats().WarmStarts
	got := ask("trained", q1, len(mixture)+q1.Len())
	if got.Source == string(SourceGlobal) {
		t.Fatal("a trained profile answered unpersonalized after a publish")
	}
	if n := c.Stats().WarmStarts - warm; n != int64(len(mixture)+q1.Len()) {
		t.Errorf("%d of %d vectors warm-started from the previous rates'", n, len(mixture)+q1.Len())
	}
	if err := eng.SetRates(scaledRates(t, eng, 0.9)); err != nil {
		t.Fatal(err)
	}
	if a := ask("blank", q2, q2.Len()); a.Source != string(SourceGlobal) {
		t.Error("an untrained profile answered personalized")
	}

	fresh, err := core.NewEngine(ds.Graph, published.Clone(), core.Config{Rank: opts})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewManager(fresh, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Put(trained); err != nil {
		t.Fatal(err)
	}
	want, _, err := cold.QueryCtx(ctx, fresh.Pin(), "trained", q1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, a fresh blend has %d", len(got.Results), len(want.Results))
	}
	for i, r := range want.Results {
		if got.Results[i].Node != r.Node || math.Abs(got.Results[i].Score-r.Score) > 1e-9 {
			t.Errorf("result %d: %d/%v after the publish, a fresh blend under the new rates gives %d/%v",
				i, got.Results[i].Node, got.Results[i].Score, r.Node, r.Score)
		}
	}
}
