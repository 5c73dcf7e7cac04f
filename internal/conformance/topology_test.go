package conformance

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
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
	return rows
}
