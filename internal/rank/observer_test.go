package rank

import (
	"testing"
)

// TestObserverMatchesIterations runs the kernel with a recording
// observer and checks the per-iteration callbacks agree exactly with
// the final Result: one call per executed iteration, 1-based indices
// in order, and a final residual consistent with the convergence
// decision.
func TestObserverMatchesIterations(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	opts := Options{Threshold: 1e-10, MaxIters: 500}

	var iters []int
	var residuals []float64
	opts.Observe = func(iter int, residual float64) {
		iters = append(iters, iter)
		residuals = append(residuals, residual)
	}

	res := Iterate(g, r.Vector(), base, opts, nil, nil)
	if !res.Converged {
		t.Fatal("fixture run did not converge")
	}
	if len(iters) != res.Iterations {
		t.Fatalf("observer saw %d iterations, kernel reports %d", len(iters), res.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("call %d reported iteration %d, want %d", i, it, i+1)
		}
	}
	// Every residual before the last must be at or above threshold
	// (the run continued); the last must be below (it stopped).
	th := opts.Normalized().Threshold
	for i, rd := range residuals[:len(residuals)-1] {
		if rd < th {
			t.Fatalf("iteration %d residual %g below threshold %g but run continued", i+1, rd, th)
		}
	}
	if last := residuals[len(residuals)-1]; last >= th {
		t.Fatalf("final residual %g not below threshold %g despite convergence", last, th)
	}
	// Residuals of a converging damped iteration must reach the
	// threshold monotonically enough that the last is the minimum.
	for _, rd := range residuals[:len(residuals)-1] {
		if rd < residuals[len(residuals)-1] {
			t.Fatalf("interior residual %g below final residual", rd)
		}
	}
}

// TestObserverZeroIters checks the observer is never called when the
// sentinel requests zero iterations.
func TestObserverZeroIters(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	calls := 0
	opts := Options{MaxIters: ZeroIters, Observe: func(int, float64) { calls++ }}
	res := Iterate(g, r.Vector(), base, opts, nil, nil)
	if res.Iterations != 0 || calls != 0 {
		t.Fatalf("zero-iteration run: Iterations=%d observer calls=%d, want 0/0", res.Iterations, calls)
	}
}

// TestObserverDoesNotChangeScores verifies observation is pure: bit
// pattern of the converged scores is identical with and without an
// observer attached (the golden-fixture guarantee must survive the
// instrumentation hook).
func TestObserverDoesNotChangeScores(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	plain := Iterate(g, r.Vector(), base, Options{Threshold: 1e-10, MaxIters: 500}, nil, nil)
	observed := Iterate(g, r.Vector(), base, Options{
		Threshold: 1e-10, MaxIters: 500,
		Observe: func(int, float64) {},
	}, nil, nil)
	if plain.Iterations != observed.Iterations {
		t.Fatalf("iterations differ: %d vs %d", plain.Iterations, observed.Iterations)
	}
	for v := range plain.Scores {
		if plain.Scores[v] != observed.Scores[v] {
			t.Fatalf("score %d differs: %v vs %v", v, plain.Scores[v], observed.Scores[v])
		}
	}
}

// kernelAllocsPerRun is a pooled run's steady-state allocation count:
// the two sync.Pool slice-header boxings in BufferPool.Put (the kernel's
// spare vector, then the caller's ReleaseTo) — per RUN, none from the
// iteration loop, so the count is the same for one sweep as for five
// hundred.
const kernelAllocsPerRun = 2

// TestIterateDisabledObserverZeroAlloc is the overhead contract of the
// observability layer: with Observe == nil the pooled serial kernel
// path allocates its per-run constant and nothing per iteration — the
// observer hook adds 0 allocs/op when disabled.
func TestIterateDisabledObserverZeroAlloc(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	alpha := r.Vector()
	pool := NewBufferPool()
	for _, maxIters := range []int{1, 500} {
		opts := Options{Threshold: 1e-10, MaxIters: maxIters}
		// Warm the pool so steady state is measured, not first-use growth.
		res := Iterate(g, alpha, base, opts, pool, nil)
		res.ReleaseTo(pool)

		allocs := testing.AllocsPerRun(100, func() {
			r := Iterate(g, alpha, base, opts, pool, nil)
			r.ReleaseTo(pool)
		})
		if allocs > kernelAllocsPerRun {
			t.Fatalf("MaxIters=%d: disabled-observer pooled kernel path allocates %v allocs/op, the per-run constant is %d — the iteration loop allocates",
				maxIters, allocs, kernelAllocsPerRun)
		}
	}
}
