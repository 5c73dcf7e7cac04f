package rank

import (
	"context"
	"testing"
	"time"
)

// TestIterateCancelBeforeStart: a context that is already dead at entry
// stops the run before the first sweep — zero iterations, Err set, and
// the scores equal the start vector (base distribution or Init).
func TestIterateCancelBeforeStart(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res := Iterate(g, r.Vector(), base, Options{Ctx: ctx}, nil, nil)
	if res.Err != context.Canceled {
		t.Fatalf("Err=%v, want context.Canceled", res.Err)
	}
	if res.Iterations != 0 || res.Converged {
		t.Fatalf("Iterations=%d Converged=%t after pre-cancelled ctx, want 0/false", res.Iterations, res.Converged)
	}
	for v := range base {
		if res.Scores[v] != base[v] {
			t.Fatalf("score %d = %v, want start-vector value %v", v, res.Scores[v], base[v])
		}
	}
}

// TestIterateCancelMidSolve cancels the context from the per-iteration
// observer at iteration N and asserts the kernel stops within exactly
// one sweep: the run executes iteration N (the cancel arrives after its
// sweep completed), the per-sweep poll fires before sweep N+1, and the
// published scores are the COMPLETE state of iteration N — bit-identical
// to an uncancelled run truncated at MaxIters=N. Scores are never
// partially published.
func TestIterateCancelMidSolve(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	const stopAt = 3

	// Reference: what a run truncated exactly at stopAt iterations
	// produces (ZeroThreshold disables early convergence).
	ref := Iterate(g, r.Vector(), base, Options{Threshold: ZeroThreshold, MaxIters: stopAt}, nil, nil)
	if ref.Iterations != stopAt {
		t.Fatalf("reference run executed %d iterations, want %d", ref.Iterations, stopAt)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		Threshold: ZeroThreshold,
		MaxIters:  500,
		Ctx:       ctx,
		Observe: func(iter int, residual float64) {
			if iter == stopAt {
				cancel()
			}
		},
	}
	res := Iterate(g, r.Vector(), base, opts, nil, nil)
	if res.Err != context.Canceled {
		t.Fatalf("Err=%v, want context.Canceled", res.Err)
	}
	if res.Iterations != stopAt {
		t.Fatalf("run executed %d iterations after cancel at %d — did not stop within one sweep", res.Iterations, stopAt)
	}
	if res.Converged {
		t.Fatal("cancelled run reported Converged")
	}
	// The cancelled run's scores must be bit-identical to the truncated
	// reference.
	for v := range ref.Scores {
		if res.Scores[v] != ref.Scores[v] {
			t.Fatalf("score %d = %b, want the complete iteration-%d state %b",
				v, res.Scores[v], stopAt, ref.Scores[v])
		}
	}
}

// TestIterateDeadlineExceeded: an expired deadline surfaces
// context.DeadlineExceeded (the 504 mapping of the HTTP layer), not
// Canceled.
func TestIterateDeadlineExceeded(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	res := Iterate(g, r.Vector(), base, Options{Ctx: ctx}, nil, nil)
	if res.Err != context.DeadlineExceeded {
		t.Fatalf("Err=%v, want context.DeadlineExceeded", res.Err)
	}
}

// TestIterateBackgroundCtxMatchesNil: running under a live (never
// cancelled) context changes nothing — scores, iterations and the
// convergence decision are bit-identical to a nil-Ctx run.
func TestIterateBackgroundCtxMatchesNil(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	plain := Iterate(g, r.Vector(), base, Options{Threshold: 1e-10, MaxIters: 500}, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := Iterate(g, r.Vector(), base, Options{Threshold: 1e-10, MaxIters: 500, Ctx: ctx}, nil, nil)
	if withCtx.Err != nil {
		t.Fatalf("live-ctx run reported Err=%v", withCtx.Err)
	}
	if plain.Iterations != withCtx.Iterations || plain.Converged != withCtx.Converged {
		t.Fatalf("iterations/converged differ: %d/%t vs %d/%t",
			plain.Iterations, plain.Converged, withCtx.Iterations, withCtx.Converged)
	}
	for v := range plain.Scores {
		if plain.Scores[v] != withCtx.Scores[v] {
			t.Fatalf("score %d differs: %v vs %v", v, plain.Scores[v], withCtx.Scores[v])
		}
	}
}

// TestIterateContextZeroAlloc is the cancellation overhead contract:
// the per-sweep poll adds 0 allocs/op on the pooled serial path, BOTH
// with Ctx nil (serving without deadlines) and with a live cancellable
// context attached (serving with deadlines that do not fire).
// kernelAllocsPerRun is a pooled run's constant.
func TestIterateContextZeroAlloc(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	alpha := r.Vector()
	pool := NewBufferPool()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cases := []struct {
		name string
		ctx  context.Context
	}{
		{"nilCtx", nil},
		{"background", context.Background()},
		{"cancellable", ctx},
	}
	for _, tc := range cases {
		opts := Options{Threshold: 1e-10, MaxIters: 500, Ctx: tc.ctx}
		// Warm the pool so steady state is measured.
		res := Iterate(g, alpha, base, opts, pool, nil)
		res.ReleaseTo(pool)
		allocs := testing.AllocsPerRun(100, func() {
			r := Iterate(g, alpha, base, opts, pool, nil)
			r.ReleaseTo(pool)
		})
		if allocs > kernelAllocsPerRun {
			t.Fatalf("%s: pooled kernel path allocates %v allocs/op, the per-run constant is %d — the ctx poll added overhead",
				tc.name, allocs, kernelAllocsPerRun)
		}
	}
}
