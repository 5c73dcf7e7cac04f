// Package router implements the scale-out serving tier: a thin,
// stdlib-only coordinator that fronts N replica afqserver processes
// through the typed v1 client (internal/server.Client) and exposes the
// SAME /v1 surface, so clients cannot tell a fleet from one replica.
//
// # Routing
//
// Single /v1/query and /v1/explain requests route by RENDEZVOUS
// HASHING of the canonical query term set: every (key, replica) pair
// is hashed and the highest hash owns the key. The same keywords
// always land on the same replica, so each replica's term-vector cache
// stays hot on its slice of the vocabulary; when a replica fails, only
// its keys move (to their second-highest replica) and the rest of the
// fleet's caches are undisturbed. /v1/query/batch panels split
// deterministically by the same ownership function, fan out
// concurrently, and merge into one response preserving request order.
//
// # Coordinated versions
//
// Writes propagate fleet-wide through the version-CAS machinery the
// single node already has. /v1/reformulate applies feedback on the
// owner replica, reads back the resulting rate vector, and replays it
// onto every other replica via POST /v1/rates with each replica's
// current version as the CAS token — so all replicas advance through
// the same (generation, ratesVersion) sequence in lockstep.
// /v1/corpus/swap fans the snapshot swap out to every replica. The
// router tracks a monotonic FLOOR (generation, ratesVersion) — the
// highest state it has coordinated or observed — and serves a query
// only from replicas at ≥ max(floor, the client's observed versions
// from the X-Afq-Min-Generation / X-Afq-Min-Rates-Version headers).
// When no live replica reaches the floor the request gets the same
// 409 version_conflict the single node answers on a lost CAS race —
// the single-node optimistic-concurrency contract, generalized.
//
// Writes are serialized by a router-level mutex: the router is the
// fleet's serialization point (run exactly one), which is what makes
// per-replica version counters comparable across the fleet.
//
// # Failure modes
//
// A health-check loop probes /v1/healthz on every replica: transport
// failures mark a replica down (its keys re-rendezvous onto the
// remaining replicas) and recovery marks it up again. Replicas whose
// rates version falls behind the floor are resynced by replaying the
// current vector from an up-to-date replica; replicas behind on
// GENERATION cannot be resynced from the router (it holds no
// snapshots) and stay excluded from serving until an operator swap
// realigns them. With no healthy replica at all the router sheds with
// 503 + Retry-After.
package router

import (
	"context"
	"errors"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/obs"
	"authorityflow/internal/server"
)

// DefaultTimeout bounds each proxied request attempt when Options
// leaves Timeout zero.
const DefaultTimeout = 30 * time.Second

// DefaultHealthInterval is the background health-sweep period when
// Options leaves HealthInterval zero.
const DefaultHealthInterval = 2 * time.Second

// Options configure a Router.
type Options struct {
	// Timeout bounds every proxied request attempt (0 = DefaultTimeout;
	// negative = no per-attempt timeout beyond the inbound request's own
	// context).
	Timeout time.Duration
	// Retries is how many extra attempts a replica client makes after a
	// transport-level failure before the router fails over (default 1).
	Retries int
	// HealthInterval is the background health-sweep period
	// (0 = DefaultHealthInterval; negative disables the loop — tests
	// drive CheckNow explicitly).
	HealthInterval time.Duration
	// HTTPClient is the shared transport of every replica client; nil
	// uses a fresh http.Client (connection pooling across replicas).
	HTTPClient *http.Client
	// Obs configures the router's observability (shared registry,
	// access/slow logs, pprof). The zero value serves /metrics and
	// request IDs from a private registry.
	Obs ObsOptions
}

// replica is one afqserver behind the router: its typed client plus
// the router's last knowledge of its state. Health and version fields
// are atomics — the health loop, the write paths and every proxied
// answer update them concurrently.
type replica struct {
	url    string
	client *server.Client

	up  atomic.Bool
	gen atomic.Uint64 // highest corpus generation observed
	rv  atomic.Uint64 // highest rates version observed

	mu        sync.Mutex
	lastErr   string
	lastCheck time.Time
}

// observe raises the replica's known (generation, ratesVersion) —
// monotonically, so a stale health probe can never roll newer
// knowledge back.
func (rp *replica) observe(gen, rv uint64) {
	raiseMax(&rp.gen, gen)
	raiseMax(&rp.rv, rv)
}

// raiseMax lifts an atomic to at least v.
func raiseMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// setDown marks the replica unhealthy with the error that demoted it.
func (rp *replica) setDown(err error) {
	rp.up.Store(false)
	rp.mu.Lock()
	rp.lastErr = err.Error()
	rp.lastCheck = time.Now()
	rp.mu.Unlock()
}

// setUp marks the replica healthy.
func (rp *replica) setUp() {
	rp.up.Store(true)
	rp.mu.Lock()
	rp.lastErr = ""
	rp.lastCheck = time.Now()
	rp.mu.Unlock()
}

// noteErr records a condition without demoting the replica (e.g. a
// generation lag the health loop cannot repair).
func (rp *replica) noteErr(msg string) {
	rp.mu.Lock()
	rp.lastErr = msg
	rp.mu.Unlock()
}

// status snapshots the replica for /v1/router/healthz.
func (rp *replica) status() ReplicaStatus {
	rp.mu.Lock()
	lastErr, lastCheck := rp.lastErr, rp.lastCheck
	rp.mu.Unlock()
	return ReplicaStatus{
		URL:          rp.url,
		Healthy:      rp.up.Load(),
		Generation:   rp.gen.Load(),
		RatesVersion: rp.rv.Load(),
		LastError:    lastErr,
		LastCheckUTC: lastCheck.UTC().Format(time.RFC3339Nano),
	}
}

// Router is the coordinator. Construct with New; it is safe for
// unbounded concurrent use. Run exactly one router per fleet — it is
// the serialization point that keeps replica version counters
// comparable.
type Router struct {
	replicas []*replica
	timeout  time.Duration
	robs     *routerObs

	// floor is the highest (generation, ratesVersion) the router has
	// coordinated or observed: queries are served only by replicas at or
	// above it. Both components only ever rise.
	floorGen atomic.Uint64
	floorRV  atomic.Uint64

	// writeMu serializes the fleet's write paths (reformulate
	// propagation, rates publication, corpus swaps, resync) so
	// concurrent writes cannot interleave their fan-outs and split the
	// fleet's version sequence.
	writeMu sync.Mutex

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a router over the given replica base URLs (e.g.
// "http://10.0.0.1:8080"). It runs one synchronous health sweep before
// returning — the router starts with a populated fleet view — and then
// keeps sweeping in the background every HealthInterval.
func New(replicaURLs []string, o Options) (*Router, error) {
	if len(replicaURLs) == 0 {
		return nil, errors.New("router: at least one replica URL required")
	}
	timeout := o.Timeout
	switch {
	case timeout == 0:
		timeout = DefaultTimeout
	case timeout < 0:
		timeout = 0
	}
	retries := o.Retries
	if retries == 0 {
		retries = 1
	}
	hc := o.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	rt := &Router{
		timeout: timeout,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	seen := make(map[string]struct{}, len(replicaURLs))
	for _, u := range replicaURLs {
		c := server.NewClient(u, hc,
			server.WithRequestTimeout(timeout),
			server.WithRetries(retries))
		if _, dup := seen[c.BaseURL()]; dup {
			return nil, errors.New("router: duplicate replica URL " + c.BaseURL())
		}
		seen[c.BaseURL()] = struct{}{}
		rt.replicas = append(rt.replicas, &replica{url: c.BaseURL(), client: c})
	}
	rt.robs = newRouterObs(o.Obs, rt)

	interval := o.HealthInterval
	if interval == 0 {
		interval = DefaultHealthInterval
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeoutOr(timeout, 5*time.Second))
	rt.CheckNow(ctx)
	cancel()
	if interval > 0 {
		go rt.healthLoop(interval)
	} else {
		close(rt.done)
	}
	return rt, nil
}

// timeoutOr returns t unless it is 0 (no timeout configured), in which
// case fallback bounds the initial sweep.
func timeoutOr(t, fallback time.Duration) time.Duration {
	if t > 0 {
		return t
	}
	return fallback
}

// Close stops the health loop. It does not touch the replicas.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// Metrics exposes the router's metric registry.
func (rt *Router) Metrics() *obs.Registry { return rt.robs.reg }

// Floor returns the router's current coordinated floor.
func (rt *Router) Floor() (generation, ratesVersion uint64) {
	return rt.floorGen.Load(), rt.floorRV.Load()
}

// raiseFloor lifts the coordinated floor (each axis monotonically).
func (rt *Router) raiseFloor(gen, rv uint64) {
	raiseMax(&rt.floorGen, gen)
	raiseMax(&rt.floorRV, rv)
}

// healthLoop sweeps the fleet until Close.
func (rt *Router) healthLoop(interval time.Duration) {
	defer close(rt.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), timeoutOr(rt.timeout, 5*time.Second))
			rt.CheckNow(ctx)
			cancel()
		}
	}
}

// CheckNow runs one health sweep: probe every replica's /v1/healthz in
// parallel, update up/down and known versions, raise the floor to the
// highest state observed, then (best effort) resync any replica whose
// rates version lags the floor. Exposed so tests and operators can
// force a sweep.
func (rt *Router) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rp := range rt.replicas {
		wg.Add(1)
		go func(rp *replica) {
			defer wg.Done()
			h, err := rp.client.Health(ctx)
			if err != nil {
				rt.robs.healthChecks.With("error").Inc()
				rp.setDown(err)
				return
			}
			rt.robs.healthChecks.With("ok").Inc()
			rp.setUp()
			rp.observe(h.Generation, h.RatesVersion)
			rt.raiseFloor(h.Generation, h.RatesVersion)
		}(rp)
	}
	wg.Wait()
	rt.resync(ctx)
}

// resync replays the floor's rate vector onto replicas whose rates
// version lags it. Skipped when a write is in progress — the write
// path finishes its own propagation, and the next sweep cleans up
// stragglers.
func (rt *Router) resync(ctx context.Context) {
	floorGen, floorRV := rt.Floor()
	var lagging []*replica
	for _, rp := range rt.replicas {
		if !rp.up.Load() {
			continue
		}
		if rp.gen.Load() < floorGen {
			rp.noteErr("generation behind fleet floor; needs a corpus swap")
			continue
		}
		if rp.rv.Load() < floorRV {
			lagging = append(lagging, rp)
		}
	}
	if len(lagging) == 0 || !rt.writeMu.TryLock() {
		return
	}
	defer rt.writeMu.Unlock()
	// Source of truth: any up replica already at the floor.
	for _, rp := range rt.replicas {
		if rp.up.Load() && rp.gen.Load() >= floorGen && rp.rv.Load() >= floorRV {
			if _, err := rt.spreadRatesLocked(ctx, rp, floorGen, lagging); err == nil {
				return
			}
		}
	}
}

// spreadRatesLocked reads src's rates — src being up to date at
// generation gen — raises the floor to their version and catches every
// replica in targets up to it. The version is the one read, which may be
// past the floor the caller saw: the source moved since. Callers hold
// writeMu.
func (rt *Router) spreadRatesLocked(ctx context.Context, src *replica, gen uint64, targets []*replica) (version uint64, err error) {
	rates, err := src.client.Rates(ctx)
	if err != nil {
		return 0, err
	}
	src.observe(gen, rates.Version)
	rt.raiseFloor(gen, rates.Version)
	for _, rp := range targets {
		rt.catchUpLocked(ctx, rp, rates.Vector, gen, rates.Version)
	}
	return rates.Version, nil
}

// catchUpLocked replays vector onto rp until its rates version reaches
// target. Each publish advances the version counter by one, so a
// replica several versions behind converges in a few round trips; the
// vector content is correct after the first successful publish and the
// remaining publishes only align the counter. Callers hold writeMu.
func (rt *Router) catchUpLocked(ctx context.Context, rp *replica, vector []float64, targetGen, targetRV uint64) {
	if rp.gen.Load() != targetGen {
		rp.noteErr("generation behind fleet floor; needs a corpus swap")
		return
	}
	for i := 0; i < 64 && rp.rv.Load() < targetRV; i++ {
		resp, err := rp.client.RatesPublish(ctx, server.RatesPublishRequest{
			Vector:       vector,
			IfVersion:    rp.rv.Load(),
			IfGeneration: targetGen,
		})
		if err == nil {
			rt.robs.ratesPublishes.Inc()
			rp.observe(targetGen, resp.Version)
			continue
		}
		var apiErr *server.APIError
		if errors.As(err, &apiErr) && apiErr.IsConflict() {
			rt.robs.ratesConflicts.Inc()
			if apiErr.Version > 0 {
				// The replica is at apiErr.Version, not where we thought.
				rp.observe(rp.gen.Load(), apiErr.Version)
				continue
			}
			// Generation-axis conflict: refresh the whole view.
			if h, herr := rp.client.Health(ctx); herr == nil {
				rp.observe(h.Generation, h.RatesVersion)
			}
			continue
		}
		rp.setDown(err)
		return
	}
}

// ---- rendezvous hashing ----

// routeKey canonicalizes a raw q parameter into the rendezvous key:
// the distinct lowercased terms, sorted — the same keyword set always
// owns the same replica, regardless of order or duplication, which is
// what keeps per-term vector caches partitioned across the fleet.
func routeKey(rawQ string) string { return routeKeyMode(rawQ, core.ModeAuthority) }

// routeKeyMode extends the rendezvous key with the ranking mode: hub
// answers cache under their own keys replica-side, so giving each
// direction its own owner spreads those caches across the
// fleet instead of piling every direction of a hot term set onto one
// replica. Authority keeps the bare term-set key — byte-identical to
// the pre-mode routing, so existing term→replica ownership never moves.
// (The NUL separator cannot appear in tokenized terms, so a mode
// suffix can never collide with a longer term set.)
func routeKeyMode(rawQ string, m core.Mode) string {
	return termsKeyMode(ir.ParseQuery(rawQ).Terms(), m)
}

// termsKeyMode is routeKeyMode over an already-parsed query's terms
// (tokenized, lowercased, deduped); it sorts terms in place.
func termsKeyMode(terms []string, m core.Mode) string {
	sort.Strings(terms)
	key := strings.Join(terms, " ")
	if m != core.ModeAuthority {
		key += "\x00" + string(m)
	}
	return key
}

// rendezvousRank returns the replicas ordered by descending
// hash(key, replica) — the rendezvous (highest-random-weight) order.
// The first live, floor-eligible entry owns the key; the rest are the
// failover sequence.
func (rt *Router) rendezvousRank(key string) []*replica {
	type scored struct {
		rp *replica
		h  uint64
	}
	order := make([]scored, len(rt.replicas))
	for i, rp := range rt.replicas {
		hash := fnv.New64a()
		hash.Write([]byte(key))
		hash.Write([]byte{0})
		hash.Write([]byte(rp.url))
		order[i] = scored{rp, hash.Sum64()}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].h != order[b].h {
			return order[a].h > order[b].h
		}
		return order[a].rp.url < order[b].rp.url
	})
	out := make([]*replica, len(order))
	for i, s := range order {
		out[i] = s.rp
	}
	return out
}

// eligible reports whether rp can serve a request under the given
// floor: live and at or above both axes.
func eligible(rp *replica, floorGen, floorRV uint64) bool {
	return rp.up.Load() && rp.gen.Load() >= floorGen && rp.rv.Load() >= floorRV
}
