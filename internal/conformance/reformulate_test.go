package conformance

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
)

// Reformulation end to end (paper §5, Eq. 11–15): whatever feedback a
// world's rankings offer, the rates Pinned.ReformulateWeightedCtx hands
// back are an authority transfer schema graph the engine may publish,
// and each of the two components leaves the other's output alone.

// validATSG reports what stops rates from being a valid assignment over
// s: a negative or NaN entry, or a node type whose outgoing rates sum
// above 1 (the ObjectRank2 convergence condition).
func validATSG(s *graph.Schema, rates []float64) error {
	for tt, a := range rates {
		if a < 0 || math.IsNaN(a) {
			return fmt.Errorf("rate of %s is %v", s.TransferTypeName(graph.TransferTypeID(tt)), a)
		}
	}
	for ty := graph.TypeID(0); int(ty) < s.NumNodeTypes(); ty++ {
		sum := 0.0
		for _, tt := range s.TransferTypesFrom(ty) {
			sum += rates[tt]
		}
		if sum > 1+1e-12 {
			return fmt.Errorf("outgoing rates of %s sum to %v", s.TypeName(ty), sum)
		}
	}
	return nil
}

// feedbackSets are the explaining subgraphs of the first one, two and
// three results of the world's first query that has three.
func (w *world) feedbackSets(t *testing.T) (*core.RankResult, [][]*core.Subgraph) {
	t.Helper()
	for _, q := range w.queries {
		res := rankOne(t, w.pin, core.ModeAuthority, q)
		top := res.TopK(3)
		if len(top) < 3 || top[2].Score == 0 {
			continue
		}
		var subs []*core.Subgraph
		var sets [][]*core.Subgraph
		for _, r := range top {
			sg, err := w.pin.ExplainCtx(context.Background(), res, r.Node, core.DefaultExplain())
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sg)
			sets = append(sets, slices.Clone(subs))
		}
		return res, sets
	}
	t.Fatal("world has no query with three scored results")
	return nil, nil
}

// TestReformulatedRatesAreValid: over the conformance seeds, the three
// survey settings and one to three feedback objects, the returned rates
// are a valid ATSG; structure-only hands the query back untouched and
// content-only the rate vector bit for bit.
func TestReformulatedRatesAreValid(t *testing.T) {
	settings := []struct {
		name string
		opts core.ReformulateOptions
	}{{"structure", core.StructureOnly()}, {"content", core.ContentOnly()}, {"both", core.ContentAndStructure()}}
	valid, total := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		w := newWorld(t, seed)
		res, sets := w.feedbackSets(t)
		q, before := res.Query, w.rates.Vector()
		for _, set := range settings {
			for _, feedback := range sets {
				name := fmt.Sprintf("seed%d/%s/%d objects", seed, set.name, len(feedback))
				ref, err := w.pin.ReformulateWeightedCtx(context.Background(), q, feedback, nil, set.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				after := ref.Rates.Vector()
				total++
				if err := validATSG(w.g.Schema(), after); err != nil {
					t.Errorf("%s: %v", name, err)
				} else {
					valid++
				}
				if set.opts.Ce == 0 && (!slices.Equal(ref.Query.Terms(), q.Terms()) || !slices.Equal(ref.Query.Weights(), q.Weights())) {
					t.Errorf("%s: structure-only changed the query %v to %v", name, q, ref.Query)
				}
				if set.opts.Cf == 0 && !slices.EqualFunc(after, before, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Errorf("%s: content-only changed the rates %v to %v", name, before, after)
				}
				if set.opts.Cf > 0 && slices.Equal(after, before) {
					t.Errorf("%s: structure feedback left every rate where it was", name)
				}
			}
		}
	}
	t.Logf("reformulated rates are a valid ATSG in %d of %d reformulations", valid, total)
}

// TestReformulatedRatesBite checks validATSG can fail: one negative
// rate, one NaN, or one type pushed past a sum of 1 is refused.
func TestReformulatedRatesBite(t *testing.T) {
	w := newWorld(t, 1)
	s := w.g.Schema()
	if err := validATSG(s, w.rates.Vector()); err != nil {
		t.Fatalf("the world's own rates: %v", err)
	}
	for name, inject := range map[string]float64{"negative": -1e-9, "NaN": math.NaN(), "sum above one": 1 + 1e-9} {
		rates := w.rates.Vector()
		rates[0] = inject
		if validATSG(s, rates) == nil {
			t.Errorf("%s rate injected, still called valid", name)
		}
	}
}
