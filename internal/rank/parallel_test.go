package rank

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"authorityflow/internal/graph"
)

// The kernel runs every solve on its caller's goroutine; what runs in
// parallel is several solves at once, sharing a buffer pool, a plan and
// their inputs. The tests here check that sharing changes no bit.

// concurrently runs f(0) … f(n−1) on n goroutines and waits for all.
func concurrently(n int, f func(caller int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// firstDiff returns the first index where a and b differ in bits, or −1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func randomWorld(t testing.TB, seed int64, n, m int) (*graph.Graph, *graph.Rates, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	g, r := paperGraph(t, n, edges, 0.6, 0.2)
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64()
	}
	NormalizeDist(base)
	return g, r, base
}

// solveShared is one caller's solve: base as the first column of a
// three-column panel, each column over the shared plan and pool. It
// returns base's column with the scores copied out, and recycles every
// buffer.
func solveShared(g *graph.Graph, alpha, base []float64, opts Options, plan *Plan, pool *BufferPool) Result {
	out := Iterate(g, alpha, base, opts, pool, plan)
	out.Scores = append([]float64(nil), out.Scores...)
	for _, b := range blockBases(g, 2) {
		res := Iterate(g, alpha, b, opts, pool, plan)
		res.ReleaseTo(pool)
	}
	return out
}

// TestParallelMatchesSerial: concurrent panels sharing one plan and
// one pool each return the bits of the column solved alone.
func TestParallelMatchesSerial(t *testing.T) {
	for _, callers := range []int{2, 3, 4, 8} {
		g, r, base := randomWorld(t, int64(callers), 500, 3000)
		alpha := r.Vector()
		opts := Options{Threshold: 1e-10, MaxIters: 1000}
		serial := run(g, r, base, opts)
		if !serial.Converged {
			t.Fatalf("callers=%d: serial solve did not converge", callers)
		}
		plan, pool := NewPlan(g, alpha, opts.Normalized().Damping, nil), NewBufferPool()
		concurrently(callers, func(c int) {
			for round := 0; round < 3; round++ {
				got := solveShared(g, alpha, base, opts, plan, pool)
				if v := firstDiff(got.Scores, serial.Scores); v >= 0 || got.Iterations != serial.Iterations {
					t.Errorf("callers=%d caller %d: iterations %d vs %d, first differing node %d",
						callers, c, got.Iterations, serial.Iterations, v)
					return
				}
			}
		})
	}
}

// TestParallelWarmStart: concurrent solves warm-started from one shared
// Init vector — a donation handed to several readers — each converge
// faster than cold, to the bits of the same warm solve run alone, and
// leave the shared vector untouched.
func TestParallelWarmStart(t *testing.T) {
	g, r, base := randomWorld(t, 9, 300, 1500)
	opts := Options{Threshold: 1e-10, MaxIters: 1000}
	cold := run(g, r, base, opts)
	base2 := append([]float64(nil), base...)
	base2[0] += 0.05
	NormalizeDist(base2)
	optsWarm := opts
	optsWarm.Init = append([]float64(nil), cold.Scores...)
	want := run(g, r, base2, optsWarm)
	if coldIters := run(g, r, base2, opts).Iterations; want.Iterations >= coldIters {
		t.Fatalf("warm start did not converge faster: %d vs %d", want.Iterations, coldIters)
	}
	pool := NewBufferPool()
	concurrently(4, func(c int) {
		got := Iterate(g, r.Vector(), base2, optsWarm, pool, nil)
		if v := firstDiff(got.Scores, want.Scores); v >= 0 || got.Iterations != want.Iterations {
			t.Errorf("caller %d: iterations %d vs %d, first differing node %d", c, got.Iterations, want.Iterations, v)
		}
		got.ReleaseTo(pool)
	})
	if v := firstDiff(optsWarm.Init, cold.Scores); v >= 0 {
		t.Errorf("shared Init written at node %d", v)
	}
}

// TestPropertyParallelEqualsSerial: quick-checked over random worlds
// and one to seven concurrent callers.
func TestPropertyParallelEqualsSerial(t *testing.T) {
	prop := func(seed int64, callers uint8) bool {
		g, r, base := randomWorld(&testing.T{}, seed, 60, 300)
		alpha := r.Vector()
		opts := Options{Threshold: 1e-9, MaxIters: 500}
		want := run(g, r, base, opts)
		plan, pool := NewPlan(g, alpha, opts.Normalized().Damping, nil), NewBufferPool()
		var mu sync.Mutex
		ok := true
		concurrently(1+int(callers%7), func(int) {
			got := solveShared(g, alpha, base, opts, plan, pool)
			if firstDiff(got.Scores, want.Scores) >= 0 || got.Iterations != want.Iterations {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
