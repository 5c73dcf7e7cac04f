package conformance

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// This file is the topology memo's part of the table. A corpus
// generation keeps each explaining subgraph's topology — what the
// backward and forward searches of Figure 8 build — keyed by the view,
// the target, the radius, the base-set nodes and the zero-rate transfer
// types, and a later explain of the key runs only the Equation 10
// adjustment. The rows check both directions: a key that must be
// reused is, and owes a fresh build and the reference every bit; a key
// that must build does. Builds are counted by Subgraph.TopologyReused.

// baseIDs lists the nodes of a ranking's base set in order.
func baseIDs(res *core.RankResult) []int32 {
	ids := make([]int32, len(res.Base))
	for i, sd := range res.Base {
		ids[i] = sd.Doc
	}
	return ids
}

// caseKey is the memo key of a case under rates that stay fixed: the
// base-set nodes in order, the target and the radius.
func caseKey(c explainCase) string {
	return fmt.Sprint(baseIDs(c.res), c.target, c.opts.Radius)
}

// explainExpect explains c under pin and fails unless the explain reused
// a topology exactly when reused says so.
func explainExpect(t *testing.T, pin *core.Pinned, m core.Mode, c explainCase, reused bool) *core.Subgraph {
	t.Helper()
	sg := explainOne(t, context.Background(), pin, m, c)
	if sg.TopologyReused != reused {
		t.Fatalf("%s explain of %d (radius %d): TopologyReused = %v, want %v", m, c.target, c.opts.Radius, sg.TopologyReused, reused)
	}
	return sg
}

// scaledRates is the world's rates with every non-zero rate scaled down
// by 0.6, 0.7 or 0.8: a publish that changes only non-zero rates.
func (w *world) scaledRates(t *testing.T) *graph.Rates {
	t.Helper()
	scaled := w.rates.Clone()
	vec := scaled.Vector()
	for i := range vec {
		vec[i] *= 0.6 + 0.1*float64(i%3)
	}
	if err := scaled.SetVector(vec); err != nil {
		t.Fatal(err)
	}
	return scaled
}

// zeroedRates is the world's rates with one more transfer type at 0:
// the type of the case's first subgraph arc, or the first type with a
// non-zero rate when the subgraph has no arcs.
func (w *world) zeroedRates(t *testing.T, m core.Mode, c explainCase) *graph.Rates {
	t.Helper()
	zeroed := w.rates.Clone()
	typ := graph.TransferTypeID(slices.IndexFunc(w.rates.Vector(), func(a float64) bool { return a != 0 }))
	if ref := w.reference(m, c); len(ref.arcs) > 0 {
		typ = ref.arcs[0].Type
	}
	if err := zeroed.SetRate(typ, 0); err != nil {
		t.Fatal(err)
	}
	return zeroed
}

// variants are the keys next to c that must each build: another radius,
// and c's target under another case's base set when one differs.
func variants(cases []explainCase, c explainCase) []explainCase {
	radius := c
	radius.opts.Radius = max(c.opts.Radius, 1) + 1
	out := []explainCase{radius}
	for _, o := range cases {
		if !slices.Equal(baseIDs(o.res), baseIDs(c.res)) {
			out = append(out, explainCase{o.res, c.target, c.opts})
			break
		}
	}
	return out
}

func topologyRows(w *world) []path {
	var rows []path
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		// Every case explained once under the world's rates, then again
		// after a publish that scales the non-zero rates: the second
		// explain reuses the topology and must move h.
		reusedAfterPublish := func(t *testing.T) [][]float64 {
			e := w.fresh(t, w.rates)
			cases := explainCases(t, w, m)
			before := make([]*core.Subgraph, len(cases))
			seen := map[string]bool{}
			for i, c := range cases {
				before[i] = explainExpect(t, e.Pin(), m, c, seen[caseKey(c)])
				seen[caseKey(c)] = true
			}
			if err := e.SetRates(w.scaledRates(t)); err != nil {
				t.Fatal(err)
			}
			pin := e.Pin()
			var out [][]float64
			for i, c := range cases {
				c.res = rankCold(t, pin, m, c.res.Query)
				sg := explainExpect(t, pin, m, c, true)
				moved := false
				for j := range sg.Nodes {
					moved = moved || sg.At(j).H != before[i].At(j).H
				}
				if len(sg.Nodes) > 1 && !moved {
					t.Fatalf("%s explain of %d: h unchanged by a publish of new rates", m, c.target)
				}
				out = append(out, flattenSubgraph(sg)...)
			}
			return out
		}
		// The same cases under the scaled rates, ranked cold as the
		// reused explains were.
		underScaled := func(t *testing.T, each func(pin *core.Pinned, c explainCase) [][]float64) [][]float64 {
			pin := w.fresh(t, w.scaledRates(t)).Pin()
			var out [][]float64
			for _, c := range explainCases(t, w, m) {
				c.res = rankCold(t, pin, m, c.res.Query)
				out = append(out, each(pin, c)...)
			}
			return out
		}
		rows = append(rows,
			path{fmt.Sprintf("%s explain reused across a publish of non-zero rates ≡ a fresh engine's build", m), bitIdentical,
				reusedAfterPublish,
				func(t *testing.T) [][]float64 {
					seen := map[string]bool{}
					return underScaled(t, func(pin *core.Pinned, c explainCase) [][]float64 {
						sg := explainExpect(t, pin, m, c, seen[caseKey(c)])
						seen[caseKey(c)] = true
						return flattenSubgraph(sg)
					})
				}},
			path{fmt.Sprintf("%s explain reused across a publish of non-zero rates ≡ reference", m), bitIdentical,
				reusedAfterPublish,
				func(t *testing.T) [][]float64 {
					alpha := w.scaledRates(t).Vector()
					return underScaled(t, func(_ *core.Pinned, c explainCase) [][]float64 {
						return flattenRef(refExplain(w.graphOf(m), alpha, tight.Damping, c.res, c.target, c.opts))
					})
				}},
			// After one build of a case, each of these must build again:
			// another radius, another base set, a publish that zeroes a
			// transfer type and a corpus swap.
			path{fmt.Sprintf("%s explain after another radius, base set, zeroed type or corpus swap builds ≡ reference", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					cases := explainCases(t, w, m)
					var out [][]float64
					for _, c := range cases {
						e := w.fresh(t, w.rates)
						pin := e.Pin()
						explainExpect(t, pin, m, c, false)
						for _, v := range variants(cases, c) {
							out = append(out, flattenSubgraph(explainExpect(t, pin, m, v, false))...)
						}
						if err := e.SetRates(w.zeroedRates(t, m, c)); err != nil {
							t.Fatal(err)
						}
						zeroed := c
						zeroed.res = rankCold(t, e.Pin(), m, c.res.Query)
						out = append(out, flattenSubgraph(explainExpect(t, e.Pin(), m, zeroed, false))...)
						if _, err := e.SwapCorpus(core.NewCorpus(w.g, core.Config{Rank: tight}), w.rates, e.Generation()); err != nil {
							t.Fatal(err)
						}
						out = append(out, flattenSubgraph(explainExpect(t, e.Pin(), m, c, false))...)
					}
					return out
				},
				func(t *testing.T) [][]float64 {
					cases := explainCases(t, w, m)
					var out [][]float64
					for _, c := range cases {
						for _, v := range variants(cases, c) {
							out = append(out, flattenRef(w.reference(m, v))...)
						}
						zeroed := w.zeroedRates(t, m, c)
						res := rankCold(t, w.fresh(t, zeroed).Pin(), m, c.res.Query)
						out = append(out, flattenRef(refExplain(w.graphOf(m), zeroed.Vector(), tight.Damping, res, c.target, c.opts))...)
						out = append(out, flattenRef(w.reference(m, c))...)
					}
					return out
				}},
		)
	}

	// The shared read-only slices under concurrency: six goroutines
	// explain the same keys over and over — the first explains of a key
	// race to build it, the rest reuse it — and read every subgraph
	// they get through FlowArcs, AuditOf and TopArcs while the others
	// explain.
	const racers, rounds, budget = 6, 4, 3
	modes := []core.Mode{core.ModeAuthority, core.ModeHub}
	rows = append(rows, path{"explains of one key from six goroutines, read by FlowArcs, AuditOf and TopArcs ≡ reference", bitIdentical,
		func(t *testing.T) [][]float64 {
			pin := w.fresh(t, w.rates).Pin()
			cases := [][]explainCase{explainCases(t, w, modes[0])[:2], explainCases(t, w, modes[1])[:2]}
			outs := make([][][]float64, racers)
			var wg sync.WaitGroup
			for r := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range rounds {
						for i, m := range modes {
							for _, c := range cases[i] {
								sg, err := pin.ExplainModeCtx(context.Background(), m, c.res, c.target, c.opts)
								if err != nil {
									t.Error(err)
									return
								}
								a := core.AuditOf(sg, budget)
								outs[r] = append(outs[r], flattenSubgraph(sg)...)
								outs[r] = append(outs[r], flattenArcs(sg.TopArcs(budget)))
								outs[r] = append(outs[r], flattenAudit(a.Arcs, a.Nodes, a.TotalArcs, a.TotalNodes)...)
							}
						}
					}
				}()
			}
			wg.Wait()
			return slices.Concat(outs...)
		},
		func(t *testing.T) [][]float64 {
			var once [][]float64
			for _, m := range modes {
				for _, c := range explainCases(t, w, m)[:2] {
					ref := w.reference(m, c)
					arcs, nodes, totalNodes := refAudit(ref, budget)
					once = append(once, flattenRef(ref)...)
					once = append(once, flattenArcs(refTopArcs(ref, budget)))
					once = append(once, flattenAudit(arcs, nodes, len(ref.arcs), totalNodes)...)
				}
			}
			var out [][]float64
			for r := 0; r < racers*rounds; r++ {
				out = append(out, once...)
			}
			return out
		}})
	return slices.Concat(rows, deriveRows(w), ballRows(w), inducedRows(w))
}

// explainPath explains c under pin and fails unless the explain came by
// its topology the way path says (core.Subgraph.TopologyPath).
func explainPath(t *testing.T, pin *core.Pinned, m core.Mode, c explainCase, path string) *core.Subgraph {
	t.Helper()
	sg := explainOne(t, context.Background(), pin, m, c)
	if got := sg.TopologyPath(); got != path {
		t.Fatalf("%s explain of %d (radius %d): topology %s, want %s", m, c.target, c.opts.Radius, got, path)
	}
	return sg
}

// deriveRows are the ball tier's rows. A generation keeps each built
// target's ball beside the decoded topologies, and once the decoded
// tier no longer holds a key (Pinned.EvictDecodedTopologies stands in
// for memory pressure) its next explain derives it from the ball. Build,
// reuse and derive owe each other every bit; a key the ball tier must
// not serve builds; and an explain abandoned during a derive stores
// nothing, so the next one derives again. The rows kept the names they
// had when the tier beside the decoded one held packed topologies.
func deriveRows(w *world) []path {
	var rows []path
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		// Every case built under the world's rates, then, after a publish
		// that scales the non-zero rates and an eviction of the decoded
		// tier, explained again: the first explain of a key derives it and
		// a repeat reuses what the derive kept.
		derivedAfterPublish := func(t *testing.T) [][]float64 {
			e := w.fresh(t, w.rates)
			cases := explainCases(t, w, m)
			seen := map[string]bool{}
			for _, c := range cases {
				explainExpect(t, e.Pin(), m, c, seen[caseKey(c)])
				seen[caseKey(c)] = true
			}
			if err := e.SetRates(w.scaledRates(t)); err != nil {
				t.Fatal(err)
			}
			pin := e.Pin()
			pin.EvictDecodedTopologies()
			derived := map[string]bool{}
			var out [][]float64
			for _, c := range cases {
				c.res = rankCold(t, pin, m, c.res.Query)
				path := "derived"
				if derived[caseKey(c)] {
					path = "reused"
				}
				derived[caseKey(c)] = true
				out = append(out, flattenSubgraph(explainPath(t, pin, m, c, path))...)
			}
			return out
		}
		// The same cases under the scaled rates, ranked cold as the
		// derived explains were, each built by a fresh engine or by the
		// reference construction.
		underScaled := func(t *testing.T, each func(pin *core.Pinned, c explainCase) [][]float64) [][]float64 {
			pin := w.fresh(t, w.scaledRates(t)).Pin()
			var out [][]float64
			for _, c := range explainCases(t, w, m) {
				c.res = rankCold(t, pin, m, c.res.Query)
				out = append(out, each(pin, c)...)
			}
			return out
		}
		rows = append(rows,
			path{fmt.Sprintf("%s explain unpacked across a publish of non-zero rates ≡ a fresh engine's build", m), bitIdentical,
				derivedAfterPublish,
				func(t *testing.T) [][]float64 {
					return underScaled(t, func(pin *core.Pinned, c explainCase) [][]float64 {
						return flattenSubgraph(explainOne(t, context.Background(), pin, m, c))
					})
				}},
			path{fmt.Sprintf("%s explain unpacked across a publish of non-zero rates ≡ reference", m), bitIdentical,
				derivedAfterPublish,
				func(t *testing.T) [][]float64 {
					alpha := w.scaledRates(t).Vector()
					return underScaled(t, func(_ *core.Pinned, c explainCase) [][]float64 {
						return flattenRef(refExplain(w.graphOf(m), alpha, tight.Damping, c.res, c.target, c.opts))
					})
				}},
			// With the decoded tier evicted, only the ball tier could
			// answer: after a publish that zeroes a transfer type and after
			// a corpus swap the key misses both tiers and builds.
			path{fmt.Sprintf("%s explain after a zeroed type or a corpus swap misses both tiers ≡ reference", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						e := w.fresh(t, w.rates)
						explainPath(t, e.Pin(), m, c, "built")
						if err := e.SetRates(w.zeroedRates(t, m, c)); err != nil {
							t.Fatal(err)
						}
						pin := e.Pin()
						pin.EvictDecodedTopologies()
						zeroed := c
						zeroed.res = rankCold(t, pin, m, c.res.Query)
						out = append(out, flattenSubgraph(explainPath(t, pin, m, zeroed, "built"))...)
						if _, err := e.SwapCorpus(core.NewCorpus(w.g, core.Config{Rank: tight}), w.rates, e.Generation()); err != nil {
							t.Fatal(err)
						}
						out = append(out, flattenSubgraph(explainPath(t, e.Pin(), m, c, "built"))...)
					}
					return out
				},
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						zeroed := w.zeroedRates(t, m, c)
						res := rankCold(t, w.fresh(t, zeroed).Pin(), m, c.res.Query)
						out = append(out, flattenRef(refExplain(w.graphOf(m), zeroed.Vector(), tight.Damping, res, c.target, c.opts))...)
						out = append(out, flattenRef(w.reference(m, c))...)
					}
					return out
				}},
			// A derive polls at entry, after the forward closure and at each
			// Eq. 10 iteration. An explain cancelled at any of them stores
			// nothing in the decoded tier, so the next explain derives again.
			path{fmt.Sprintf("%s explain after a cancellation at each unpack poll ≡ reference", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m)[:2] {
						pin := w.fresh(t, w.rates).Pin()
						explainPath(t, pin, m, c, "built")
						for n := 0; n < 1+w.reference(m, c).iterations; n++ {
							pin.EvictDecodedTopologies()
							ctx := &countdown{Context: context.Background(), left: n}
							if sg, err := pin.ExplainModeCtx(ctx, m, c.res, c.target, c.opts); err != context.Canceled || sg != nil {
								t.Fatalf("cancelled at derive poll %d: (%v, %v), want (nil, context.Canceled)", n, sg, err)
							}
							out = append(out, flattenSubgraph(explainPath(t, pin, m, c, "derived"))...)
						}
					}
					return out
				},
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m)[:2] {
						ref := w.reference(m, c)
						for n := 0; n < 1+ref.iterations; n++ {
							out = append(out, flattenRef(ref)...)
						}
					}
					return out
				}},
		)
	}

	// Six goroutines explain the same keys while a seventh evicts the
	// decoded tier over and over: the explains race to build, derive and
	// reuse one key's topology, and every subgraph is read whole.
	const racers, rounds = 6, 4
	modes := []core.Mode{core.ModeAuthority, core.ModeHub}
	rows = append(rows, path{"explains of one key from six goroutines while the decoded tier is evicted ≡ reference", bitIdentical,
		func(t *testing.T) [][]float64 {
			pin := w.fresh(t, w.rates).Pin()
			cases := [][]explainCase{explainCases(t, w, modes[0])[:2], explainCases(t, w, modes[1])[:2]}
			outs := make([][][]float64, racers)
			done := make(chan struct{})
			evicted := make(chan struct{})
			go func() {
				defer close(evicted)
				for {
					select {
					case <-done:
						return
					default:
						pin.EvictDecodedTopologies()
					}
				}
			}()
			var wg sync.WaitGroup
			for r := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range rounds {
						for i, m := range modes {
							for _, c := range cases[i] {
								sg, err := pin.ExplainModeCtx(context.Background(), m, c.res, c.target, c.opts)
								if err != nil {
									t.Error(err)
									return
								}
								outs[r] = append(outs[r], flattenSubgraph(sg)...)
							}
						}
					}
				}()
			}
			wg.Wait()
			close(done)
			<-evicted
			return slices.Concat(outs...)
		},
		func(t *testing.T) [][]float64 {
			var once [][]float64
			for _, m := range modes {
				for _, c := range explainCases(t, w, m)[:2] {
					once = append(once, flattenRef(w.reference(m, c))...)
				}
			}
			var out [][]float64
			for r := 0; r < racers*rounds; r++ {
				out = append(out, once...)
			}
			return out
		}})
	return rows
}

// primed explains c under pin after an explain of its target under an
// empty base set, which builds the target's ball or finds it in the
// ball tier and keeps the target alone, with the decoded tier then
// evicted: the explain restricts the ball to c's base set.
func primed(t *testing.T, pin *core.Pinned, m core.Mode, c explainCase) *core.Subgraph {
	t.Helper()
	none := *c.res
	none.Base = nil
	explainOne(t, context.Background(), pin, m, explainCase{&none, c.target, c.opts})
	pin.EvictDecodedTopologies()
	return explainPath(t, pin, m, c, "derived")
}

// ballRows check the derive path case by case: every case of
// explainCases — the target-alone cases among them — at radius 1–4 and
// unbounded, in both directions, derived from its target's ball (primed)
// owes a fresh engine's build and the reference every bit.
func ballRows(w *world) []path {
	var rows []path
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		each := func(t *testing.T, f func(c explainCase) [][]float64) [][]float64 {
			var out [][]float64
			for _, c := range explainCases(t, w, m) {
				for _, r := range invariantRadii {
					c.opts.Radius = r
					out = append(out, f(c)...)
				}
			}
			return out
		}
		derived := func(t *testing.T) [][]float64 {
			pin := w.fresh(t, w.rates).Pin()
			return each(t, func(c explainCase) [][]float64 { return flattenSubgraph(primed(t, pin, m, c)) })
		}
		rows = append(rows,
			path{fmt.Sprintf("%s explain derived from the target's ball, radius 1–4 and unbounded ≡ a fresh engine's build", m), bitIdentical,
				derived,
				func(t *testing.T) [][]float64 {
					return each(t, func(c explainCase) [][]float64 {
						return flattenSubgraph(explainPath(t, w.fresh(t, w.rates).Pin(), m, c, "built"))
					})
				}},
			path{fmt.Sprintf("%s explain derived from the target's ball, radius 1–4 and unbounded ≡ reference", m), bitIdentical,
				derived,
				func(t *testing.T) [][]float64 {
					return each(t, func(c explainCase) [][]float64 { return flattenRef(w.reference(m, c)) })
				}})
	}
	return rows
}

// TestBallClosureBites checks the ball rows can fail: a derive that
// skipped the forward closure would keep the target's whole ball, which
// is what an explain whose base set is every node keeps. Among the
// rows' cases there is one whose ball holds a node its base set cannot
// reach, so that explain differs from the reference.
func TestBallClosureBites(t *testing.T) {
	bitten := 0
	for seed := int64(1); seed <= 5; seed++ {
		w := newWorld(t, seed)
		for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
			every := make([]ir.ScoredDoc, w.g.NumNodes())
			for v := range every {
				every[v] = ir.ScoredDoc{Doc: int32(v), Score: 1 / float64(len(every))}
			}
			for _, c := range explainCases(t, w, m) {
				for _, r := range invariantRadii {
					c.opts.Radius = r
					ref := w.reference(m, c)
					whole := *c.res
					whole.Base = every
					sg := explainOne(t, context.Background(), w.pin, m, explainCase{&whole, c.target, c.opts})
					if len(sg.Nodes) == len(ref.nodes) {
						continue
					}
					if slices.EqualFunc(flattenSubgraph(sg), flattenRef(ref), slices.Equal) {
						t.Fatalf("seed %d: %s explain of %d (radius %d) keeps the whole ball and still ≡ reference", seed, m, c.target, r)
					}
					bitten++
				}
			}
		}
	}
	if bitten == 0 {
		t.Fatal("no case's ball holds a node its base set cannot reach: a derive that skips the closure passes every row")
	}
}

// inducedArcs is Figure 8's invariant as a reference: the positive-rate
// arcs of g under alpha whose tail and head both lie in nodes, tails
// ascending and each tail's arcs in CSR order, flattened as (From, To,
// Type) triples.
func inducedArcs(g *graph.Graph, alpha []float64, nodes []graph.NodeID) []float64 {
	var out []float64
	for _, u := range nodes {
		for _, a := range g.OutArcs(u) {
			if _, in := slices.BinarySearch(nodes, a.To); in && alpha[a.Type] > 0 {
				out = append(out, float64(u), float64(a.To), float64(a.Type))
			}
		}
	}
	return out
}

// arcTriples flattens a subgraph's arcs, in Arcs order, as (From, To,
// Type) triples.
func arcTriples(sg *core.Subgraph) []float64 {
	var out []float64
	for _, a := range sg.FlowArcs() {
		out = append(out, float64(a.From), float64(a.To), float64(a.Type))
	}
	return out
}

// invariantRadii are the radii the invariant row explains every case at.
var invariantRadii = []int{1, 2, 3, 4, 0}

// inducedRows check Figure 8's invariant, which lets a derive keep a
// kept node's whole row of the ball and lose nothing: a subgraph's arcs
// are exactly the positive-rate arcs of its view that its node set
// induces, in row order. Every case of explainCases — the
// target-alone cases among them — at radius 1–4 and unbounded, in both
// directions.
func inducedRows(w *world) []path {
	var rows []path
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		each := func(t *testing.T, f func(sg *core.Subgraph) []float64) [][]float64 {
			var out [][]float64
			for _, c := range explainCases(t, w, m) {
				for _, r := range invariantRadii {
					c.opts.Radius = r
					out = append(out, f(explainOne(t, context.Background(), w.pin, m, c)))
				}
			}
			return out
		}
		rows = append(rows, path{fmt.Sprintf("%s subgraph arcs, radius 1–4 and unbounded ≡ the positive-rate arcs its nodes induce", m), bitIdentical,
			func(t *testing.T) [][]float64 { return each(t, arcTriples) },
			func(t *testing.T) [][]float64 {
				return each(t, func(sg *core.Subgraph) []float64 { return inducedArcs(w.graphOf(m), w.rates.Vector(), sg.Nodes) })
			}})
	}
	return rows
}

// TestInducedArcsBites checks the invariant row can fail: with one arc
// dropped from a subgraph, or one zero-rate arc between two of its nodes
// added in its row, the arcs no longer equal the ones its nodes induce.
// The zero-rate arc comes from a publish that zeroes the type of a
// case's first arc, which leaves that type's arcs between the nodes
// still kept.
func TestInducedArcsBites(t *testing.T) {
	dropped, added := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		w := newWorld(t, seed)
		for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
			g := w.graphOf(m)
			for _, c := range explainCases(t, w, m) {
				sg := explainOne(t, context.Background(), w.pin, m, c)
				got, want := arcTriples(sg), inducedArcs(g, w.rates.Vector(), sg.Nodes)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: %s explain of %d breaks the invariant", seed, m, c.target)
				}
				if len(got) > 0 {
					mid := 3 * (len(got) / 6)
					if slices.Equal(slices.Delete(slices.Clone(got), mid, mid+3), want) {
						t.Errorf("seed %d: %s explain of %d with an arc dropped still induces its arcs", seed, m, c.target)
					}
					dropped++
				}

				zeroed := w.zeroedRates(t, m, c)
				pin := w.fresh(t, zeroed).Pin()
				c.res = rankCold(t, pin, m, c.res.Query)
				sg = explainOne(t, context.Background(), pin, m, c)
				alpha := zeroed.Vector()
				want = inducedArcs(g, alpha, sg.Nodes)
				// Each arc of the view between two of the subgraph's nodes,
				// in row order, with the zero-rate ones kept: insert the
				// first zero-rate one into the subgraph's arcs.
				var extra []float64
				at := 0
				for _, u := range sg.Nodes {
					for _, a := range g.OutArcs(u) {
						if _, in := slices.BinarySearch(sg.Nodes, a.To); !in {
							continue
						}
						if alpha[a.Type] > 0 {
							at += 3
						} else if extra == nil {
							extra = []float64{float64(u), float64(a.To), float64(a.Type)}
							break
						}
					}
					if extra != nil {
						break
					}
				}
				if extra == nil {
					continue
				}
				if slices.Equal(slices.Insert(arcTriples(sg), at, extra...), want) {
					t.Errorf("seed %d: %s explain of %d with a zero-rate arc added still induces its arcs", seed, m, c.target)
				}
				added++
			}
		}
	}
	if dropped == 0 || added == 0 {
		t.Fatalf("the bite twin dropped %d arcs and added %d zero-rate arcs; want both > 0", dropped, added)
	}
}
