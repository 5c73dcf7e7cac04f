package cache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// secondCorpus generates a differently-sized dataset and wraps it in a
// corpus with the given rank options, for swapping into a test engine.
func secondCorpus(t testing.TB, opts rank.Options) (*core.Corpus, *graph.Rates) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.015)
	cfg.Seed = 9
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewCorpus(ds.Graph, core.Config{Rank: opts}), ds.Rates
}

// TestSwapInvalidatesCache is the cross-generation isolation test: a
// cached answer must never be served for a different corpus generation,
// even when the published rate vector is numerically identical before
// and after the swap (the scenario a rates-only cache key would get
// wrong).
func TestSwapInvalidatesCache(t *testing.T) {
	opts := rank.Options{Threshold: 1e-8, MaxIters: 300}
	_, eng := testEngine(t, opts)
	c := New(eng, Options{})
	q := ir.NewQuery("mining")

	a1 := query(c, q, 10)
	if a1.Source != SourceComputed {
		t.Fatalf("first answer source = %q, want computed", a1.Source)
	}
	if a1.Generation != eng.Generation() {
		t.Fatalf("answer generation = %d, engine at %d", a1.Generation, eng.Generation())
	}
	a2 := query(c, q, 10)
	if a2.Source != SourceResult {
		t.Fatalf("repeat answer source = %q, want result-cache hit", a2.Source)
	}

	c2, r2 := secondCorpus(t, opts)
	gen1, err := eng.SwapCorpus(c2, r2, eng.Generation())
	if err != nil {
		t.Fatal(err)
	}

	a3 := query(c, q, 10)
	if a3.Generation != gen1 {
		t.Fatalf("post-swap answer generation = %d, want %d", a3.Generation, gen1)
	}
	if a3.Source != SourceComputed {
		t.Fatalf("post-swap answer source = %q — a cached answer crossed the swap", a3.Source)
	}
	n2 := c2.Graph().NumNodes()
	for _, it := range a3.Results {
		if int(it.Node) >= n2 {
			t.Fatalf("post-swap result node %d out of range for %d-node graph", it.Node, n2)
		}
	}

	// The old generation's pin still answers from the old corpus (its
	// entries are unreachable for new pins but valid for old ones).
	// A fresh query through the engine default path uses the new state.
	if g := query(c, q, 10).Generation; g != gen1 {
		t.Fatalf("steady-state generation = %d, want %d", g, gen1)
	}
}

// TestSwapWarmStartStaysWithinGeneration checks the donation path:
// after a swap, the term's slot in the old generation (a vector sized
// for the old graph) must NOT be donated as a warm start for the new
// generation.
func TestSwapWarmStartStaysWithinGeneration(t *testing.T) {
	opts := rank.Options{Threshold: 1e-8, MaxIters: 300}
	_, eng := testEngine(t, opts)
	c := New(eng, Options{})
	q := ir.NewQuery("mining")

	query(c, q, 10) // populate generation 1's term vector

	c2, r2 := secondCorpus(t, opts)
	if _, err := eng.SwapCorpus(c2, r2, eng.Generation()); err != nil {
		t.Fatal(err)
	}
	pin := eng.Pin()
	if c.donation(pin.Generation()-1, core.ModeAuthority, "mining") == nil {
		t.Fatal("generation 1's slot lost its vector in the swap")
	}
	if init := c.donation(pin.Generation(), core.ModeAuthority, "mining"); init != nil {
		t.Fatal("donation offered a cross-generation vector")
	}
	// And the solve itself stays sized for the new graph.
	a := query(c, q, 10)
	if a.Generation != pin.Generation() {
		t.Fatalf("answer generation = %d, want %d", a.Generation, pin.Generation())
	}
}

// TestSwapCacheHammer races cached queries against corpus swaps with
// -race: every answer must carry the generation of the pin that
// produced it, and every result node must be in range for that
// generation's graph.
func TestSwapCacheHammer(t *testing.T) {
	opts := rank.Options{Threshold: 1e-6, MaxIters: 200}
	_, eng := testEngine(t, opts)
	c := New(eng, Options{})
	cA, rA := eng.Corpus(), eng.Rates()
	cB, rB := secondCorpus(t, opts)

	// Node count per generation, recorded by the single swapper.
	var nodesOf sync.Map
	nodesOf.Store(eng.Generation(), eng.Graph().NumNodes())

	queries := []*ir.Query{
		ir.NewQuery("mining"), ir.NewQuery("database"), ir.NewQuery("xml"),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pin := eng.Pin()
				a, err := c.QueryModePinnedCtx(ctx, pin, queries[(w+i)%len(queries)], 10, core.ModeAuthority)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if a.Generation != pin.Generation() {
					t.Errorf("answer generation %d != pinned %d", a.Generation, pin.Generation())
					return
				}
				want, ok := nodesOf.Load(a.Generation)
				if !ok {
					t.Errorf("answer carries unpublished generation %d", a.Generation)
					return
				}
				for _, it := range a.Results {
					if int(it.Node) >= want.(int) {
						t.Errorf("generation %d answer holds node %d, graph has %d nodes",
							a.Generation, it.Node, want)
						return
					}
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		useB := true
		for i := 0; i < 100; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cc, rr := cA, rA
			if useB {
				cc, rr = cB, rB
			}
			// Recorded BEFORE the swap publishes it, so no reader can
			// answer under a generation the map does not know yet.
			cur := eng.Generation()
			nodesOf.Store(cur+1, cc.Graph().NumNodes())
			_, err := eng.SwapCorpus(cc, rr, cur)
			if err == nil {
				useB = !useB
			} else if !errors.Is(err, core.ErrGenerationConflict) {
				t.Errorf("swap: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
