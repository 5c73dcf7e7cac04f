package core

import (
	"context"
	"math"
	"testing"
	"time"

	"authorityflow/internal/ir"
)

// TestSolveDurIsTheColumnsOwn: a column solved with others reports its
// own run in RankResult.SolveDur — the group's wall time is
// SolveStats.SolveDur — so summing a batch's columns, as Combine and
// the request trace do, does not count the group once per column.
func TestSolveDurIsTheColumnsOwn(t *testing.T) {
	e := newFixture(t).newEngine(t) // serial: the columns run one after another
	var group time.Duration
	e.SetSolveHook(func(st SolveStats) { group += st.SolveDur })
	qs := []*ir.Query{ir.NewQuery("olap"), ir.NewQuery("cube"), ir.NewQuery("agrawal"), ir.NewQuery("data"), ir.NewQuery("icde")}
	rs, err := e.Pin().Solve(context.Background(), SolveSpec{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, r := range rs {
		sum += r.SolveDur
	}
	if sum <= 0 || sum > group {
		t.Errorf("columns' SolveDur sum to %v, the group's wall time is %v", sum, group)
	}
}

// TestPlanBelongsToMultiColumnSolves: a snapshot's coefficient plan is
// built by the first multi-column solve in its direction and by nothing
// else — not a one-column solve in any mode, not a publish — and the
// next snapshot's plan shares the generation's source column.
func TestPlanBelongsToMultiColumnSolves(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	ctx := context.Background()
	one := []*ir.Query{ir.NewQuery("olap")}
	two := []*ir.Query{ir.NewQuery("olap"), ir.NewQuery("cube")}
	plans := func(p *Pinned) (authority, hub bool) {
		return p.st.snap.plans[0].plan != nil, p.st.snap.plans[1].plan != nil
	}
	built := 0
	e.SetSolveHook(func(st SolveStats) {
		if st.PlanBuilt {
			built++
		}
	})

	pin := e.Pin()
	for _, m := range []Mode{ModeAuthority, ModeHub} {
		if _, err := pin.Solve(ctx, SolveSpec{Queries: one, Mode: m}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pin.Solve(ctx, SolveSpec{Queries: one, Mode: "combined"}); err == nil {
		t.Fatal("a solve in a mode that is no direction must fail")
	}
	if a, h := plans(pin); a || h || built != 0 {
		t.Fatalf("one-column solves built plans: authority=%v hub=%v (%d reported)", a, h, built)
	}
	for i := 0; i < 2; i++ {
		if _, err := pin.Solve(ctx, SolveSpec{Queries: two}); err != nil {
			t.Fatal(err)
		}
	}
	if a, h := plans(pin); !a || h || built != 1 {
		t.Fatalf("after two authority batches: authority=%v hub=%v, %d builds reported, want true/false/1", a, h, built)
	}

	if err := e.SetRates(f.rates); err != nil {
		t.Fatal(err)
	}
	next := e.Pin()
	if a, h := plans(next); a || h {
		t.Fatalf("a publish built plans: authority=%v hub=%v", a, h)
	}
	for _, m := range []Mode{ModeAuthority, ModeHub} {
		if _, err := next.Solve(ctx, SolveSpec{Queries: two, Mode: m}); err != nil {
			t.Fatal(err)
		}
	}
	if a, h := plans(next); !a || !h || built != 3 {
		t.Fatalf("after a batch in each direction on the next snapshot: authority=%v hub=%v, %d builds, want true/true/3", a, h, built)
	}
	if gn := next.st.gen; gn != pin.st.gen || gn.views[0].sources == nil || gn.views[1].sources == nil {
		t.Fatal("the generation's source columns were not kept across the publish")
	}
}

// TestNineColumnsOneSolve: a Solve of nine distinct queries is one call
// of the kernel stage — the hook fires once, with Columns = 9, and the
// call builds the fresh snapshot's plan for every column to sweep — and
// each column is Float64bits-equal to its query solved alone, which
// reads no plan.
func TestNineColumnsOneSolve(t *testing.T) {
	e := newFixture(t).newEngine(t)
	terms := []string{"olap", "index", "range", "data", "cube", "modeling", "agrawal", "multidimensional", "databases"}
	var qs []*ir.Query
	for _, tm := range terms {
		qs = append(qs, ir.NewQuery(tm))
	}
	var stats []SolveStats
	e.SetSolveHook(func(st SolveStats) { stats = append(stats, st) })
	ctx := context.Background()
	rs, err := e.Pin().Solve(ctx, SolveSpec{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Columns != len(terms) || !stats[0].PlanBuilt {
		t.Fatalf("hook firings %+v, want one with Columns = %d and PlanBuilt", stats, len(terms))
	}
	for i, q := range qs {
		if len(rs[i].Base) == 0 {
			t.Fatalf("%q has an empty base set", terms[i])
		}
		alone, err := e.Pin().Solve(ctx, SolveSpec{Queries: []*ir.Query{q}})
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].Iterations != alone[0].Iterations {
			t.Errorf("%q: %d iterations in the batch, %d alone", terms[i], rs[i].Iterations, alone[0].Iterations)
		}
		for v, x := range alone[0].Scores {
			if math.Float64bits(rs[i].Scores[v]) != math.Float64bits(x) {
				t.Fatalf("%q: score %d = %v in the batch, %v alone", terms[i], v, rs[i].Scores[v], x)
			}
		}
	}
	if len(stats) != 1+len(terms) || stats[1].PlanBuilt {
		t.Fatalf("the one-column solves fired %d hooks, the first with PlanBuilt = %v", len(stats)-1, stats[1].PlanBuilt)
	}
}
