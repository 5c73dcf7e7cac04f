package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// TestConcurrentRankVsSetRates hammers Rank/Explain readers against
// SetRates writers with no external synchronization. Run with -race:
// the snapshot design means readers either see the old or the new
// rates wholesale, never a torn mixture, and never block.
func TestConcurrentRankVsSetRates(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")

	// Two alternating valid rate assignments.
	r1 := f.rates.Clone()
	r2 := f.rates.Clone()
	r2.Set(f.edges["cites"], graph.Forward, 0.5)
	r2.Set(f.edges["by"], graph.Backward, 0.1)

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := rankQ(e, q)
				if len(res.Scores) != f.g.NumNodes() {
					t.Error("short score vector")
					return
				}
				if res.RatesVersion == 0 {
					t.Error("missing rates version")
					return
				}
				if _, err := explain(e, res, f.ids["v7"], DefaultExplain()); err != nil {
					t.Errorf("explain: %v", err)
					return
				}
				e.Release(res)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				r := r1
				if (i+w)%2 == 0 {
					r = r2
				}
				if err := e.SetRates(r); err != nil {
					t.Errorf("SetRates: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait() // readers race the full write burst
	close(stop)
	readers.Wait()

	if v := e.RatesVersion(); v != 1+400 {
		t.Errorf("rates version = %d after 400 writes, want 401", v)
	}
}

// TestTrySetRatesConflict exercises the optimistic-concurrency write:
// of N concurrent reformulation-style writers pinned to the same
// version, exactly one wins; the rest get ErrRatesConflict with the
// winning version.
func TestTrySetRatesConflict(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)

	pin := e.Pin()
	const n = 8
	var wins, conflicts atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := e.TrySetRates(pin.Rates(), pin.Version())
			switch {
			case err == nil:
				wins.Add(1)
				if v != pin.Version()+1 {
					t.Errorf("winning version = %d, want %d", v, pin.Version()+1)
				}
			case errors.Is(err, ErrRatesConflict):
				conflicts.Add(1)
				if v != pin.Version()+1 {
					t.Errorf("conflict reports version %d, want %d", v, pin.Version()+1)
				}
			default:
				t.Errorf("TrySetRates: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 || conflicts.Load() != n-1 {
		t.Errorf("wins = %d, conflicts = %d (want 1, %d)", wins.Load(), conflicts.Load(), n-1)
	}
}

// TestPinnedConsistency verifies that a pinned view keeps serving the
// rates captured at pin time even after SetRates publishes new ones —
// the property the server's multi-step reformulation flow relies on.
func TestPinnedConsistency(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")

	pin := e.Pin()
	before := rankPinned(pin, q)
	beforeScores := append([]float64(nil), before.Scores...)
	e.Release(before)

	// Publish drastically different rates.
	changed := f.rates.Clone()
	changed.Set(f.edges["cites"], 0, 0.05)
	if err := e.SetRates(changed); err != nil {
		t.Fatal(err)
	}
	if e.RatesVersion() != pin.Version()+1 {
		t.Fatalf("version = %d", e.RatesVersion())
	}

	// The pin still computes the original fixpoint, bit for bit.
	again := rankPinned(pin, q)
	for i, s := range again.Scores {
		if s != beforeScores[i] {
			t.Fatalf("pinned rank drifted at node %d: %g != %g", i, s, beforeScores[i])
		}
	}
	e.Release(again)

	// The engine itself serves the new rates (different scores).
	fresh := rankQ(e, q)
	same := true
	for i, s := range fresh.Scores {
		if s != beforeScores[i] {
			same = false
			break
		}
	}
	e.Release(fresh)
	if same {
		t.Error("engine still serving pre-SetRates scores")
	}

	// And a stale publication against the pin's version conflicts.
	if _, err := e.TrySetRates(pin.Rates(), pin.Version()); !errors.Is(err, ErrRatesConflict) {
		t.Errorf("stale TrySetRates err = %v, want ErrRatesConflict", err)
	}
}

// BenchmarkEngineRankPooled measures steady-state serving with the
// release loop closed: allocations should be far below the seed's
// per-query cost because score buffers recycle through the pool.
func BenchmarkEngineRankPooled(b *testing.B) {
	f := newFixture(b)
	e := f.newEngine(b)
	q := ir.NewQuery("olap")
	// Warm the pool and the global-PageRank cache.
	e.Release(rankQ(e, q))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rankQ(e, q)
		e.Release(res)
	}
}
