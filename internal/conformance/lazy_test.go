package conformance

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
)

// This file is the lazy Equation 6 pass's part of the table. An explain
// runs the Equation 10 fixpoint and leaves the per-node sums — in- and
// out-flow, audit sensitivity — to the first read of one. Whichever
// reader comes first, and however many come at once, every output of
// the subgraph owes the reference every bit.

// sumsBudget is the budget the lazy rows read TopArcs and AuditOf at.
const sumsBudget = 16

// firstReads are the readers of a subgraph the lazy rows put first: the
// Equation 15 sum, which reads no sum, and three that run the pass.
var firstReads = []string{"Eq. 15", "TopArcs", "AuditOf", "At"}

// readAll reads every output of sg with the reader named first going
// first, and returns them in one order whatever went first: the nodes,
// flows and per-node state (flattenSubgraph), FlowByType of a
// structure-only reformulation of sg alone, TopArcs and AuditOf.
func readAll(pin *core.Pinned, sg *core.Subgraph, first string) ([][]float64, error) {
	out := make(map[string][][]float64, len(firstReads))
	reads := map[string]func() error{
		"Eq. 15": func() error {
			ref, err := pin.ReformulateWeightedCtx(context.Background(), sg.Query, []*core.Subgraph{sg}, nil, core.StructureOnly())
			if err != nil {
				return err
			}
			out["Eq. 15"] = [][]float64{ref.FlowByType}
			return nil
		},
		"TopArcs": func() error {
			out["TopArcs"] = [][]float64{flattenArcs(sg.TopArcs(sumsBudget))}
			return nil
		},
		"AuditOf": func() error {
			a := core.AuditOf(sg, sumsBudget)
			out["AuditOf"] = flattenAudit(a.Arcs, a.Nodes, a.TotalArcs, a.TotalNodes)
			return nil
		},
		"At": func() error {
			out["At"] = flattenSubgraph(sg)
			return nil
		},
	}
	if err := reads[first](); err != nil {
		return nil, err
	}
	for _, name := range firstReads {
		if name != first {
			if err := reads[name](); err != nil {
				return nil, err
			}
		}
	}
	return slices.Concat(out["At"], out["Eq. 15"], out["TopArcs"], out["AuditOf"]), nil
}

// refReadAll is readAll's vectors for the reference subgraph, with FlowByType
// summed in arc order over n transfer types.
func refReadAll(ref *refSubgraph, n int) [][]float64 {
	flows := make([]float64, n)
	for _, a := range ref.arcs {
		flows[a.Type] += 1 * a.Flow
	}
	arcs, nodes, totalNodes := refAudit(ref, sumsBudget)
	return slices.Concat(flattenRef(ref), [][]float64{flows, flattenArcs(refTopArcs(ref, sumsBudget))},
		flattenAudit(arcs, nodes, len(ref.arcs), totalNodes))
}

// lazyRows check the lazy pass in both directions on every case of
// explainCases: each reader going first on a fresh subgraph, and six
// goroutines making the first read of one fresh subgraph at once, each
// reader first in some of them (run under -race).
func lazyRows(w *world) []path {
	const racers = 6
	var rows []path
	types := w.g.Schema().NumTransferTypes()
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		references := func(times int) func(t *testing.T) [][]float64 {
			return func(t *testing.T) [][]float64 {
				var out [][]float64
				for _, c := range explainCases(t, w, m) {
					ref := refReadAll(w.reference(m, c), types)
					for range times {
						out = append(out, ref...)
					}
				}
				return out
			}
		}
		rows = append(rows,
			path{fmt.Sprintf("%s subgraph read first by Eq. 15, TopArcs, AuditOf or At ≡ reference", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						for _, first := range firstReads {
							got, err := readAll(w.pin, explainOne(t, context.Background(), w.pin, m, c), first)
							if err != nil {
								t.Fatal(err)
							}
							out = append(out, got...)
						}
					}
					return out
				}, references(len(firstReads))},
			path{fmt.Sprintf("%s subgraph's first reads from six goroutines at once ≡ reference", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						sg := explainOne(t, context.Background(), w.pin, m, c)
						outs := make([][][]float64, racers)
						start := make(chan struct{})
						var wg sync.WaitGroup
						for r := range outs {
							wg.Add(1)
							go func() {
								defer wg.Done()
								<-start
								got, err := readAll(w.pin, sg, firstReads[r%len(firstReads)])
								if err != nil {
									t.Error(err)
								}
								outs[r] = got
							}()
						}
						close(start)
						wg.Wait()
						out = append(out, slices.Concat(outs...)...)
					}
					return out
				}, references(racers)},
		)
	}
	return rows
}

// TestLazySumsBite checks the lazy rows can fail: a pass that took the
// sums before the Equation 10 fixpoint converged sums the flows of an
// earlier iterate, which is what an explain stopped an iteration early
// reads. Every case that needs two or more iterations then sums
// otherwise than the reference.
func TestLazySumsBite(t *testing.T) {
	bitten := 0
	for seed := int64(1); seed <= 5; seed++ {
		w := newWorld(t, seed)
		for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
			for _, c := range explainCases(t, w, m) {
				ref := w.reference(m, c)
				if ref.iterations < 2 || len(ref.arcs) == 0 {
					continue
				}
				early := c
				early.opts.MaxIters = ref.iterations - 1
				sg := explainOne(t, context.Background(), w.pin, m, early)
				got, err := readAll(w.pin, sg, "At")
				if err != nil {
					t.Fatal(err)
				}
				if sumsEqual(got, refReadAll(ref, w.g.Schema().NumTransferTypes()), sg.Nodes) {
					t.Fatalf("seed %d: %s explain of %d stopped after %d of %d iterations still sums as the reference", seed, m, c.target, early.opts.MaxIters, ref.iterations)
				}
				bitten++
			}
		}
	}
	if bitten == 0 {
		t.Fatal("no case needs two iterations: sums taken before Eq. 10 converges pass every row")
	}
}

// sumsEqual reports whether readAll's vectors got and want agree bit for
// bit on every sum: each node's InFlow and OutFlow (by position and by
// ID), FlowByType, TopArcs and AuditOf.
func sumsEqual(got, want [][]float64, nodes []graph.NodeID) bool {
	if len(got) != len(want) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	// flattenSubgraph's node vector holds nine entries per node: the
	// sums are entries 3, 4, 7 and 8.
	for i := range nodes {
		for _, k := range []int{3, 4, 7, 8} {
			if !same(got[0][9*i+k], want[0][9*i+k]) {
				return false
			}
		}
	}
	for i := 3; i < len(got); i++ {
		if !slices.EqualFunc(got[i], want[i], same) {
			return false
		}
	}
	return true
}
