package core

import (
	"context"
	"math"
	"testing"

	"authorityflow/internal/ir"
)

// TestBenchAdaptersMatchSolve pins the five Rank*Ctx names cmd/afqbench
// binds to the Solve specs they stand for, bit for bit.
func TestBenchAdaptersMatchSolve(t *testing.T) {
	pin := newFixture(t).newEngine(t).Pin()
	ctx := context.Background()
	q, q2 := ir.NewQuery("olap"), ir.NewQuery("cube agrawal")
	prev := solveOne(pin, SolveSpec{Queries: []*ir.Query{q}}).Scores

	same := func(name string, got *RankResult, err error, want *RankResult) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("%s: %d iterations, Solve takes %d", name, got.Iterations, want.Iterations)
		}
		for v := range want.Scores {
			if math.Float64bits(got.Scores[v]) != math.Float64bits(want.Scores[v]) {
				t.Fatalf("%s: node %d differs from Solve", name, v)
			}
		}
	}
	got, err := pin.RankCtx(ctx, q2)
	same("RankCtx", got, err, solveOne(pin, SolveSpec{Queries: []*ir.Query{q2}}))
	got, err = pin.RankColdCtx(ctx, q2)
	same("RankColdCtx", got, err, solveOne(pin, SolveSpec{Queries: []*ir.Query{q2}, Cold: true}))
	got, err = pin.RankFromCtx(ctx, q2, prev)
	same("RankFromCtx", got, err, solveOne(pin, SolveSpec{Queries: []*ir.Query{q2}, Inits: [][]float64{prev}}))
	got, err = pin.RankFromCtx(ctx, q2, nil)
	same("RankFromCtx(nil)", got, err, solveOne(pin, SolveSpec{Queries: []*ir.Query{q2}, Cold: true}))
	got, err = pin.RankModeCtx(ctx, q2, ModeHub)
	same("RankModeCtx", got, err, solveOne(pin, SolveSpec{Queries: []*ir.Query{q2}, Mode: ModeHub}))
	many, err := pin.RankManyCtx(ctx, []*ir.Query{q, q2})
	if err != nil {
		t.Fatal(err)
	}
	same("RankManyCtx[1]", many[1], nil, solveOne(pin, SolveSpec{Queries: []*ir.Query{q2}}))
}
