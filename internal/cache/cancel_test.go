package cache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// ---- flightGroup-level contracts ----

// TestFlightFollowerCancelDoesNotAbortLeader is the detachment
// contract at the singleflight layer: a follower whose context dies
// stops waiting immediately, but the shared computation keeps running
// (its detached context stays live) because the leader still wants the
// result — and the leader receives the full value.
func TestFlightFollowerCancelDoesNotAbortLeader(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	var sawCancel atomic.Bool

	leaderDone := make(chan struct{})
	var leaderVal any
	go func() {
		defer close(leaderDone)
		leaderVal, _, _ = g.DoCtx(context.Background(), "k", func(dctx context.Context) (any, error) {
			close(started)
			<-release
			if dctx.Err() != nil {
				sawCancel.Store(true)
			}
			return "value", nil
		})
	}()

	<-started
	fctx, fcancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	var followerErr error
	var followerShared bool
	go func() {
		defer close(followerDone)
		_, followerShared, followerErr = g.DoCtx(fctx, "k", func(context.Context) (any, error) {
			t.Error("follower must join the in-flight call, not start its own")
			return nil, nil
		})
	}()

	// Give the follower a moment to join, then cancel it.
	time.Sleep(5 * time.Millisecond)
	fcancel()
	select {
	case <-followerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower did not return while the flight was still running")
	}
	if followerErr != context.Canceled || !followerShared {
		t.Fatalf("follower got (shared=%t, err=%v), want (true, context.Canceled)", followerShared, followerErr)
	}

	close(release)
	<-leaderDone
	if leaderVal != "value" {
		t.Fatalf("leader got %v, want the computed value", leaderVal)
	}
	if sawCancel.Load() {
		t.Fatal("detached context was cancelled although the leader still wanted the result")
	}
}

// TestFlightAllWaitersGoneCancelsSolve: when EVERY waiter (leader
// included) abandons the flight, the refcount hits zero and the
// detached context is cancelled — the solve stops computing for
// nobody, and the next caller starts a fresh flight.
func TestFlightAllWaitersGoneCancelsSolve(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	detachedCancelled := make(chan struct{})

	lctx, lcancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	var leaderErr error
	go func() {
		defer close(leaderDone)
		_, _, leaderErr = g.DoCtx(lctx, "k", func(dctx context.Context) (any, error) {
			close(started)
			<-dctx.Done() // simulate a kernel observing the per-sweep poll
			close(detachedCancelled)
			return nil, dctx.Err()
		})
	}()

	<-started
	lcancel()
	select {
	case <-detachedCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("detached context not cancelled after the last waiter left")
	}
	<-leaderDone
	if leaderErr != context.Canceled {
		t.Fatalf("leader err = %v, want context.Canceled", leaderErr)
	}

	// The group is reusable: a fresh caller computes anew.
	v, shared, err := g.DoCtx(context.Background(), "k", func(context.Context) (any, error) { return 42, nil })
	if v != 42 || shared || err != nil {
		t.Fatalf("fresh flight after drain = (%v, %t, %v), want (42, false, nil)", v, shared, err)
	}
}

// TestFlightPanicPropagates is the panic-safety regression: a
// panicking fn must re-raise the SAME panic value in the leader and in
// every follower (nobody blocks forever), and the key must be cleared
// so the group remains usable.
func TestFlightPanicPropagates(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	const boom = "kernel exploded"

	const followers = 8
	panics := make(chan any, followers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		defer func() { panics <- recover() }()
		g.DoCtx(context.Background(), "k", func(context.Context) (any, error) {
			close(started)
			<-release
			panic(boom)
		})
	}()
	<-started
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics <- recover() }()
			g.DoCtx(context.Background(), "k", func(context.Context) (any, error) {
				t.Error("follower ran fn during an in-flight panic test")
				return nil, nil
			})
		}()
	}
	time.Sleep(5 * time.Millisecond) // let followers join
	close(release)
	wg.Wait()

	close(panics)
	n := 0
	for p := range panics {
		n++
		if p != boom {
			t.Fatalf("waiter recovered %v, want the original panic value %q", p, boom)
		}
	}
	if n != followers+1 {
		t.Fatalf("%d waiters panicked, want %d (leader + followers)", n, followers+1)
	}

	// Slot cleared: the group still works.
	v, _, err := g.DoCtx(context.Background(), "k", func(context.Context) (any, error) { return "ok", nil })
	if v != "ok" || err != nil {
		t.Fatalf("flight after panic = (%v, %v), want (ok, nil)", v, err)
	}
}

// ---- CachedEngine-level contracts ----

// TestQueryCtxFollowerCancelCacheFillLands is the PR-4 acceptance
// scenario: a follower that joins an in-flight solve and then cancels
// neither aborts the solve nor poisons the cache — the leader's fill
// lands, exactly one kernel execution runs, and a later identical
// query is a result-cache hit bit-identical to the leader's answer.
func TestQueryCtxFollowerCancelCacheFillLands(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	// Slow the solve enough for a deterministic join: signal on the
	// first sweep, then drag every sweep out a little.
	opts := rank.Options{
		Threshold: 1e-12,
		MaxIters:  60,
		Observe: func(iter int, _ float64) {
			once.Do(func() { close(started) })
			time.Sleep(200 * time.Microsecond)
		},
	}
	_, eng := testEngine(t, opts)
	c := New(eng, Options{})
	q := ir.NewQuery("olap")

	leaderDone := make(chan struct{})
	var leaderAns *Answer
	var leaderErr error
	go func() {
		defer close(leaderDone)
		leaderAns, leaderErr = queryCtx(context.Background(), c, q, 10)
	}()
	<-started

	fctx, fcancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	var followerErr error
	go func() {
		defer close(followerDone)
		_, followerErr = queryCtx(fctx, c, q, 10)
	}()
	time.Sleep(2 * time.Millisecond) // let the follower join the flight
	fcancel()
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return promptly")
	}
	if followerErr != context.Canceled {
		t.Fatalf("follower err = %v, want context.Canceled", followerErr)
	}

	select {
	case <-leaderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("leader did not finish — the follower's cancel aborted the shared solve")
	}
	if leaderErr != nil {
		t.Fatalf("leader err = %v", leaderErr)
	}
	if computes := c.stats.computes.Load(); computes != 1 {
		t.Fatalf("kernel executions = %d, want exactly 1", computes)
	}

	// The fill landed: the same query is now a pure result-cache hit,
	// bit-identical to the leader's answer.
	again, err := queryCtx(context.Background(), c, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != SourceResult {
		t.Fatalf("repeat query source = %q, want %q (cache fill must have landed)", again.Source, SourceResult)
	}
	if len(again.Results) != len(leaderAns.Results) {
		t.Fatalf("result lengths differ: %d vs %d", len(again.Results), len(leaderAns.Results))
	}
	for i := range again.Results {
		if again.Results[i] != leaderAns.Results[i] {
			t.Fatalf("result %d differs: %+v vs %+v (cached answer not bit-identical)",
				i, again.Results[i], leaderAns.Results[i])
		}
	}
}

// TestQueryCtxPreCancelled: a dead context short-circuits before any
// cache or kernel work.
func TestQueryCtxPreCancelled(t *testing.T) {
	_, eng := testEngine(t, rank.Options{Threshold: 1e-8, MaxIters: 500})
	c := New(eng, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if a, err := queryCtx(ctx, c, ir.NewQuery("olap"), 10); err != context.Canceled || a != nil {
		t.Fatalf("QueryModePinnedCtx = (%v, %v), want (nil, context.Canceled)", a, err)
	}
	if a, err := c.RankPinnedCtx(ctx, eng.Pin(), ir.NewQuery("olap")); err != context.Canceled || a != nil {
		t.Fatalf("RankPinnedCtx = (%v, %v), want (nil, context.Canceled)", a, err)
	}
}
