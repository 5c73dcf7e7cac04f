package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// newEightNodeCorpus builds a second-generation corpus: the Figure 1
// graph plus an extra OLAP paper (v8), so the two generations have
// different node counts and a result vector sized for one generation
// can never be mistaken for the other's.
func newEightNodeCorpus(t testing.TB) (*Corpus, *graph.Rates) {
	t.Helper()
	s, types, edges := newDBLPSchema()
	b := graph.NewBuilder(s)
	var ids [9]graph.NodeID
	ids[1] = b.AddNode(types["Paper"], graph.Attr{Name: "Title", Value: "Index Selection for OLAP."})
	ids[2] = b.AddNode(types["Conference"], graph.Attr{Name: "Name", Value: "ICDE"})
	ids[3] = b.AddNode(types["Year"], graph.Attr{Name: "Name", Value: "ICDE"}, graph.Attr{Name: "Year", Value: "1997"})
	ids[4] = b.AddNode(types["Paper"], graph.Attr{Name: "Title", Value: "Range Queries in OLAP Data Cubes."})
	ids[5] = b.AddNode(types["Paper"], graph.Attr{Name: "Title", Value: "Modeling Multidimensional Databases."})
	ids[6] = b.AddNode(types["Author"], graph.Attr{Name: "Name", Value: "R. Agrawal"})
	ids[7] = b.AddNode(types["Paper"], graph.Attr{Name: "Title", Value: "Data Cube: A Relational Aggregation Operator."})
	ids[8] = b.AddNode(types["Paper"], graph.Attr{Name: "Title", Value: "An OLAP Survey, Second Edition."})
	b.AddEdge(ids[2], ids[3], edges["hasInstance"])
	b.AddEdge(ids[3], ids[1], edges["contains"])
	b.AddEdge(ids[3], ids[5], edges["contains"])
	b.AddEdge(ids[1], ids[7], edges["cites"])
	b.AddEdge(ids[4], ids[7], edges["cites"])
	b.AddEdge(ids[4], ids[5], edges["cites"])
	b.AddEdge(ids[5], ids[7], edges["cites"])
	b.AddEdge(ids[4], ids[6], edges["by"])
	b.AddEdge(ids[5], ids[6], edges["by"])
	b.AddEdge(ids[8], ids[1], edges["cites"])
	b.AddEdge(ids[8], ids[4], edges["cites"])
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCorpus(g, Config{Rank: rank.Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}})
	return c, figure3Rates(s, edges)
}

func TestSwapCorpusCASAndPinnedIsolation(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	c2, r2 := newEightNodeCorpus(t)
	q := ir.NewQuery("olap")

	gen0, ver0 := e.Generation(), e.RatesVersion()
	pin := e.Pin()

	// Wrong generation token: the CAS must refuse and report the winner.
	if gen, err := e.SwapCorpus(c2, r2, gen0+5); !errors.Is(err, ErrGenerationConflict) {
		t.Fatalf("stale-token swap: gen=%d err=%v, want ErrGenerationConflict", gen, err)
	} else if gen != gen0 {
		t.Fatalf("conflict reported generation %d, want current %d", gen, gen0)
	}
	if e.Generation() != gen0 {
		t.Fatalf("failed swap moved the generation to %d", e.Generation())
	}

	// Rates over a foreign schema must be rejected without publishing.
	if _, err := e.SwapCorpus(c2, f.rates, gen0); err == nil {
		t.Fatal("swap accepted rates defined over a different schema")
	}
	if e.Generation() != gen0 {
		t.Fatalf("rejected swap moved the generation to %d", e.Generation())
	}

	// Correct token: generation and rates version both advance.
	gen1, err := e.SwapCorpus(c2, r2, gen0)
	if err != nil {
		t.Fatal(err)
	}
	if gen1 != gen0+1 {
		t.Fatalf("generation = %d, want %d", gen1, gen0+1)
	}
	if e.RatesVersion() != ver0+1 {
		t.Fatalf("rates version = %d, want %d", e.RatesVersion(), ver0+1)
	}
	if n := e.Graph().NumNodes(); n != 8 {
		t.Fatalf("swapped-in graph has %d nodes, want 8", n)
	}

	// The pre-swap pin still serves the old generation, wholesale.
	if pin.Generation() != gen0 {
		t.Fatalf("pin generation = %d, want %d", pin.Generation(), gen0)
	}
	if n := pin.Corpus().Graph().NumNodes(); n != 7 {
		t.Fatalf("pinned graph has %d nodes, want 7", n)
	}
	res := rankPinned(pin, q)
	if res.Generation != gen0 || len(res.Scores) != 7 {
		t.Fatalf("pinned rank: generation=%d len=%d, want generation=%d len=7", res.Generation, len(res.Scores), gen0)
	}

	// A fresh pin sees the new generation end to end.
	res2 := rankPinned(e.Pin(), q)
	if res2.Generation != gen1 || len(res2.Scores) != 8 {
		t.Fatalf("post-swap rank: generation=%d len=%d, want generation=%d len=8", res2.Generation, len(res2.Scores), gen1)
	}

	// A reformulation token minted before the swap loses its race:
	// version tokens never repeat across generations. (r2 matches the
	// current schema, so the stale token is what gets rejected.)
	if _, err := e.TrySetRates(r2, pin.Version()); !errors.Is(err, ErrRatesConflict) {
		t.Fatalf("pre-swap version token: err=%v, want ErrRatesConflict", err)
	}
	e.Release(res)
	e.Release(res2)
}

// TestSwapCorpusWarmStartLengthGuard feeds a warm-start vector sized
// for the old generation into the new one: the engine must silently
// fall back to a cold start rather than index out of range.
func TestSwapCorpusWarmStartLengthGuard(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	stale := rankQ(e, q) // 7-wide vector from generation 1

	c2, r2 := newEightNodeCorpus(t)
	if _, err := e.SwapCorpus(c2, r2, e.Generation()); err != nil {
		t.Fatal(err)
	}
	res := rankFrom(e, q, stale.Scores) // would panic without the guard
	if len(res.Scores) != 8 {
		t.Fatalf("len(scores) = %d, want 8", len(res.Scores))
	}
	e.Release(res)
}

// TestSwapCorpusBatchWarmStartGuards is the cross-generation
// regression for the blocked warm-start path: per-query donations
// sized for a previous generation's graph must silently degrade to the
// global warm start (earlier builds fed them to the kernel, which
// panicked the serving goroutine), while a MIS-COUNTED donation slice
// — desynced bookkeeping with no possible pairing — comes back as
// ErrWarmStartMismatch instead of a panic.
func TestSwapCorpusBatchWarmStartGuards(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	ctx := context.Background()
	qs := []*ir.Query{ir.NewQuery("olap"), ir.NewQuery("cube")}

	// Converged vectors from generation 1 (7 nodes each).
	pre, err := e.Pin().Solve(ctx, SolveSpec{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	stale := [][]float64{pre[0].Scores, pre[1].Scores}

	c2, r2 := newEightNodeCorpus(t)
	if _, err := e.SwapCorpus(c2, r2, e.Generation()); err != nil {
		t.Fatal(err)
	}
	pin := e.Pin()

	// Stale donations: every column degrades, none may panic or index
	// out of range, and results match the undonated batch bit for bit.
	donated, err := pin.Solve(ctx, SolveSpec{Queries: qs, Inits: stale})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pin.Solve(ctx, SolveSpec{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if len(donated[i].Scores) != 8 {
			t.Fatalf("query %d: donated result has %d scores, want 8", i, len(donated[i].Scores))
		}
		for v := range plain[i].Scores {
			if donated[i].Scores[v] != plain[i].Scores[v] {
				t.Fatalf("query %d node %d: stale donation changed the answer", i, v)
			}
		}
	}

	// Mis-counted donations: typed error, not a panic.
	if _, err := pin.Solve(ctx, SolveSpec{Queries: qs, Inits: stale[:1]}); !errors.Is(err, ErrWarmStartMismatch) {
		t.Fatalf("mis-counted inits: err=%v, want ErrWarmStartMismatch", err)
	}
	for _, r := range pre {
		e.Release(r)
	}
	for _, r := range donated {
		e.Release(r)
	}
	for _, r := range plain {
		e.Release(r)
	}
}

// TestSwapCorpusHammer is the -race acceptance hammer: concurrent
// queries, corpus swaps and rate publishes with no external locking.
// Every result must be internally consistent with the state its reader
// pinned — the score vector sized for exactly the generation stamped on
// the result, the (generation, version) pair one that was actually
// published.
func TestSwapCorpusHammer(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	cA := e.Corpus()
	rA := f.rates
	cB, rB := newEightNodeCorpus(t)
	q := ir.NewQuery("olap")

	// nodesOf records the node count of every published generation.
	// Only the swapper goroutine publishes, so the map is complete.
	var nodesOf sync.Map
	nodesOf.Store(e.Generation(), e.Graph().NumNodes())

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: pin, rank, and audit the result against the pin.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := e.Pin()
				res, err := solveMode(pin, q, ModeAuthority)
				if err != nil {
					t.Errorf("rank: %v", err)
					return
				}
				if res.Generation != pin.Generation() {
					t.Errorf("result generation %d != pinned %d", res.Generation, pin.Generation())
				}
				if res.RatesVersion != pin.Version() {
					t.Errorf("result version %d != pinned %d", res.RatesVersion, pin.Version())
				}
				want, ok := nodesOf.Load(res.Generation)
				if !ok {
					t.Errorf("result carries unpublished generation %d", res.Generation)
				} else if want.(int) != len(res.Scores) {
					t.Errorf("generation %d result has %d scores, want %d", res.Generation, len(res.Scores), want)
				}
				if n := pin.Corpus().Graph().NumNodes(); n != len(res.Scores) {
					t.Errorf("pinned graph has %d nodes but result has %d scores", n, len(res.Scores))
				}
				e.Release(res)
			}
		}()
	}

	// Swapper: alternate the two corpora through the generation CAS.
	wg.Add(1)
	go func() {
		defer wg.Done()
		useB := true
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, r := cA, rA
			if useB {
				c, r = cB, rB
			}
			// Recorded BEFORE the swap publishes it, so no reader can
			// answer under a generation the map does not know yet.
			cur := e.Generation()
			nodesOf.Store(cur+1, c.Graph().NumNodes())
			_, err := e.SwapCorpus(c, r, cur)
			if err == nil {
				useB = !useB
			} else if !errors.Is(err, ErrGenerationConflict) {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()

	// Rates writer: optimistic publishes racing the swapper; both
	// conflicts and successes are legal, torn state is not.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pin := e.Pin()
			r := pin.Rates()
			// Any error is legal here: a stale version token
			// (ErrRatesConflict) or, when a swap lands between Pin and
			// publish, a schema-validation rejection. Torn state — not
			// rejection — is what -race and the readers check for.
			_, _ = e.TrySetRates(r, pin.Version())
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Whatever generation won, the engine still serves.
	res := rankPinned(e.Pin(), q)
	if len(res.Scores) != e.Graph().NumNodes() {
		t.Fatalf("post-hammer rank sized %d for a %d-node graph", len(res.Scores), e.Graph().NumNodes())
	}
	e.Release(res)
}
