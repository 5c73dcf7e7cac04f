package cache

import (
	"context"
	"sync"
	"sync/atomic"
)

// flightGroup collapses concurrent duplicate work: N goroutines asking
// for the same key while a computation is in flight all wait for the
// one leader and share its result. This is a minimal in-tree
// singleflight (the repo deliberately takes no external dependencies);
// unlike golang.org/x/sync/singleflight it returns the flight's value
// as `any` and reports whether the caller was a follower.
//
// Cancellation model (the PR-4 detached-solve contract): the
// computation runs under a DETACHED context derived from
// context.Background, not from any single caller's request context. A
// caller whose own context dies stops waiting immediately — but the
// flight keeps running as long as at least one interested caller
// remains, so a cancelled follower can never abort the leader's cache
// fill. The detached context is cancelled only when the REFCOUNT of
// interested callers drops to zero: at that point nobody wants the
// result, and a context-aware fn (the ranking kernel) abandons the
// solve within one sweep instead of burning cores for nobody.
//
// Panic model: a panicking fn must not strand its followers. The
// flight goroutine recovers the panic value, clears the key (so the
// group is reusable), and re-raises the SAME value in every waiter —
// leader and followers alike — turning "one poisoned computation" into
// N observable panics instead of N goroutines blocked forever.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall

	// dedup counts calls answered by another caller's computation
	// instead of their own.
	dedup atomic.Int64
}

// flightCall is one in-flight computation.
type flightCall struct {
	// done is closed by the flight goroutine after val/err/panicVal are
	// final and the key has been removed from the group — so a waiter
	// that sees done closed and retries cannot re-join this flight.
	done chan struct{}

	// Written by the flight goroutine before close(done); read by
	// waiters only after <-done (happens-before via channel close).
	val      any
	err      error
	panicked bool
	panicVal any

	// mu guards waiters. cancel aborts the detached context; it is
	// invoked exactly once by whoever drops waiters to zero, or by the
	// flight goroutine at exit (context.CancelFunc is idempotent).
	mu      sync.Mutex
	waiters int
	cancel  context.CancelFunc
}

// addWaiter registers interest in the flight. It fails (returns false)
// when the refcount already hit zero: the detached solve is being
// cancelled and its result must not be handed to a fresh caller — the
// caller waits for the slot to clear and starts a new flight instead.
func (c *flightCall) addWaiter() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiters == 0 {
		return false
	}
	c.waiters++
	return true
}

// dropWaiter abandons interest; the last waiter out cancels the
// detached solve.
func (c *flightCall) dropWaiter() {
	c.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	c.mu.Unlock()
	if last {
		c.cancel()
	}
}

// DoCtx runs fn under key, deduplicating concurrent callers, with
// per-caller cancellation: ctx governs only THIS caller's wait, never
// the shared computation (see the type doc for the detachment and
// refcount rules). fn receives the detached context and should honor
// it. Returns:
//
//   - (val, shared, nil): a flight finished; val is fn's value, shared
//     whether another caller's flight produced it (counted in dedup).
//   - (nil, shared, ctx.Err()): the caller's own context died while
//     waiting. The flight may still complete for the other waiters.
//   - (nil, false, err): the caller's OWN flight failed with fn's error.
//
// A caller with a live ctx never sees another flight's failure (in
// practice the context error of a solve whose waiters all left): it
// waits for that flight's slot to clear and flies afresh.
//
// A panicking fn re-panics in every waiter with the original value.
func (g *flightGroup) DoCtx(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, shared bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flightCall)
		}
		var c *flightCall
		if c, shared = g.m[key]; !shared {
			dctx, cancel := context.WithCancel(context.Background())
			c = &flightCall{done: make(chan struct{}), waiters: 1, cancel: cancel}
			g.m[key] = c
			go g.run(c, key, dctx, fn)
		}
		joined := !shared || c.addWaiter()
		g.mu.Unlock()
		if !joined {
			// The flight is draining (refcount hit zero, detached solve
			// cancelled). Wait for the slot to clear, then start fresh —
			// unless our own context dies first.
			select {
			case <-c.done:
				continue
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
		}
		val, err = c.wait(ctx)
		switch {
		case err == nil:
			if shared {
				g.dedup.Add(1)
			}
			return val, shared, nil
		case ctx.Err() != nil:
			return nil, shared, ctx.Err()
		case !shared:
			return nil, false, err
		}
		// Joined, late, a flight whose solve was then abandoned; its key
		// is already clear.
	}
}

// run executes fn on the flight goroutine. The deferred block runs on
// success AND on panic: it records the panic value, removes the key
// (before close(done), so post-completion arrivals start a fresh
// flight), releases the detached context, and wakes every waiter.
func (g *flightGroup) run(c *flightCall, key string, dctx context.Context, fn func(context.Context) (any, error)) {
	defer func() {
		if p := recover(); p != nil {
			c.panicked = true
			c.panicVal = p
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.cancel() // release the detached context's timer/goroutine resources
		close(c.done)
	}()
	c.val, c.err = fn(dctx)
}

// wait blocks until the flight finishes or the caller's context dies.
func (c *flightCall) wait(ctx context.Context) (any, error) {
	select {
	case <-c.done:
		if c.panicked {
			panic(c.panicVal)
		}
		return c.val, c.err
	case <-ctx.Done():
		c.dropWaiter()
		return nil, ctx.Err()
	}
}
