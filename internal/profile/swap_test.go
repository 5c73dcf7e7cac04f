package profile

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// secondCorpus generates a differently-sized dataset for swapping into
// a test engine (the cache package's swap-test fixture).
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

// TestSwapProfileHammer is the cross-generation invalidation test of
// the personalization tier (run with -race): personalized queries race
// corpus swaps and rates publishes, and every answer must carry the
// generation and rates of the pin that produced it with every result
// node in range for that generation's graph — i.e. a mixture is NEVER
// blended from another generation's panel or vectors, and nothing
// serializes the first queries after a publish. This mirrors the
// serving cache's swap hammer.
func TestSwapProfileHammer(t *testing.T) {
	opts := rank.Options{Threshold: 1e-6, MaxIters: 200}
	_, eng := testEngine(t, opts)
	m, err := NewManager(eng, Options{Dir: t.TempDir(), BasisSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	pinA := eng.Pin()
	cA, rA := pinA.Corpus(), pinA.Rates()
	cB, rB := secondCorpus(t, opts)

	// Seed a few trained-looking profiles whose mixtures cover both
	// corpora's head vocabulary.
	for i := 0; i < 4; i++ {
		if _, err := m.Put(&Profile{
			ID:      fmt.Sprintf("u%d", i),
			Mixture: map[string]float64{"mining": 0.5, "database": 0.3, "xml": 0.2},
			Beta:    0.4,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Node count per generation, recorded by the single swapper.
	var nodesOf sync.Map
	nodesOf.Store(eng.Pin().Generation(), eng.Pin().Corpus().Graph().NumNodes())

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
				id := fmt.Sprintf("u%d", (w+i)%4)
				a, _, err := m.QueryCtx(ctx, pin, id, queries[(w+i)%len(queries)], 10)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if a.Generation != pin.Generation() || a.Version != pin.Version() {
					t.Errorf("answer at generation %d version %d, pinned %d %d", a.Generation, a.Version, pin.Generation(), pin.Version())
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

	// Publishers: each rescales one rate of whatever is current, so the
	// serving cache's keys move under the readers within a generation
	// too. A publish that lost to a swap or another publish is dropped.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pin := eng.Pin()
				r := pin.Rates()
				v := r.Vector()
				v[(w+i)%len(v)] *= 0.9
				if err := r.SetVector(v); err != nil {
					t.Errorf("rates: %v", err)
					return
				}
				// A swap in between makes the rates another schema's: rejected.
				_, err := eng.TrySetRates(r, pin.Version())
				if err != nil && !errors.Is(err, core.ErrRatesConflict) && eng.Pin().Generation() == pin.Generation() {
					t.Errorf("publish: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		useB := true
		for i := 0; i < 60; i++ {
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
			cur := eng.Pin().Generation()
			nodesOf.Store(cur+1, cc.Graph().NumNodes())
			_, err := eng.SwapCorpus(cc, rr, cur)
			if err == nil {
				useB = !useB
			} else if !errors.Is(err, core.ErrGenerationConflict) {
				t.Errorf("swap: %v", err)
				return
			}
			time.Sleep(time.Millisecond) // let publishes land within each generation
		}
		close(stop)
	}()
	wg.Wait()
}
