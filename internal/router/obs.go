package router

import (
	"io"
	"time"

	"authorityflow/internal/obs"
)

// ObsOptions configure the router's observability, mirroring the
// server's: the zero value serves /metrics and request IDs and merely
// disables the access log and slow-request log.
type ObsOptions struct {
	// AccessLog, when non-nil, receives one structured JSON line per
	// routed request.
	AccessLog io.Writer
	// SlowLog receives one JSON line — with the request's span events,
	// which for the router name the replicas tried — per request slower
	// than SlowThreshold. Nil falls back to AccessLog.
	SlowLog io.Writer
	// SlowThreshold is the slow-request latency threshold; 0 disables
	// slow-request logging.
	SlowThreshold time.Duration
}

// routerObs bundles the router's metric families and HTTP middleware.
// Families are namespaced afq_router_* so a shared registry can
// co-host a replica's afq_* families without collision.
type routerObs struct {
	reg *obs.Registry
	mw  *obs.Middleware

	// routed counts proxied requests by the replica that answered.
	routed *obs.CounterVec
	// failovers counts single-request retries on the next replica in
	// rendezvous order after the preferred one failed.
	failovers *obs.Counter
	// staleSkips counts replicas skipped during routing because they
	// were below the effective version floor.
	staleSkips *obs.Counter
	// healthChecks counts health-sweep probes by outcome (ok|error).
	healthChecks *obs.CounterVec
	// ratesPublishes / ratesConflicts count the router's own
	// propagation POST /v1/rates calls (replays and resyncs, not a
	// client's publish, which is routed like any write) and the CAS
	// conflicts they hit.
	ratesPublishes *obs.Counter
	ratesConflicts *obs.Counter
	// swaps counts replica corpus swaps the router fanned out
	// successfully.
	swaps *obs.Counter
	// batchGroups observes how many replica sub-batches each
	// /v1/query/batch fanned out to.
	batchGroups *obs.Histogram

	// Fleet-view gauges, refreshed on every /metrics gather.
	replicaUp    *obs.GaugeVec
	replicaGen   *obs.GaugeVec
	replicaRV    *obs.GaugeVec
	floorGen     *obs.Gauge
	floorRV      *obs.Gauge
	healthyCount *obs.Gauge
}

// newRouterObs registers every afq_router_* family and wires the
// fleet-view gauges to refresh from rt on gather.
func newRouterObs(o ObsOptions, rt *Router) *routerObs {
	reg := obs.NewRegistry()
	ro := &routerObs{reg: reg}
	ro.mw = obs.NewMiddleware(reg, "afq_router")
	ro.mw.AccessLog = obs.NewLogger(o.AccessLog)
	slow := o.SlowLog
	if slow == nil {
		slow = o.AccessLog
	}
	ro.mw.SlowLog = obs.NewLogger(slow)
	ro.mw.SlowThreshold = o.SlowThreshold

	ro.routed = reg.NewCounterVec("afq_router_routed_total",
		"Requests proxied to a replica, labelled by the replica that answered.", "replica")
	ro.failovers = reg.NewCounter("afq_router_failover_total",
		"Single-request attempts retried on the next replica in rendezvous order after a transport failure.")
	ro.staleSkips = reg.NewCounter("afq_router_stale_skips_total",
		"Replicas skipped during routing because they were below the effective (generation, ratesVersion) floor.")
	ro.healthChecks = reg.NewCounterVec("afq_router_health_checks_total",
		"Health-sweep probes by outcome.", "outcome")
	ro.healthChecks.With("ok")
	ro.healthChecks.With("error")
	ro.ratesPublishes = reg.NewCounter("afq_router_rates_publishes_total",
		"Fleet-propagation POST /v1/rates calls that landed (replay after a write, and resync).")
	ro.ratesConflicts = reg.NewCounter("afq_router_rates_publish_conflicts_total",
		"CAS conflicts hit while propagating rate vectors across the fleet.")
	ro.swaps = reg.NewCounter("afq_router_corpus_swaps_total",
		"Replica corpus swaps the router fanned out successfully (one count per replica swapped).")
	ro.batchGroups = reg.NewHistogram("afq_router_batch_groups",
		"Replica sub-batches per /v1/query/batch fan-out.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16})

	ro.replicaUp = reg.NewGaugeVec("afq_router_replica_up",
		"1 when the replica passed its last health probe, else 0.", "replica")
	ro.replicaGen = reg.NewGaugeVec("afq_router_replica_generation",
		"Highest corpus generation the router has observed on the replica.", "replica")
	ro.replicaRV = reg.NewGaugeVec("afq_router_replica_rates_version",
		"Highest rates version the router has observed on the replica.", "replica")
	ro.floorGen = reg.NewGauge("afq_router_floor_generation",
		"Corpus-generation floor: replicas below it are ineligible to serve.")
	ro.floorRV = reg.NewGauge("afq_router_floor_rates_version",
		"Rates-version floor: replicas below it are ineligible to serve.")
	ro.healthyCount = reg.NewGauge("afq_router_replicas_healthy",
		"Replicas currently marked healthy.")
	reg.OnGather(func() {
		healthy := 0
		for _, rp := range rt.replicas {
			up := 0.0
			if rp.up.Load() {
				up = 1
				healthy++
			}
			ro.replicaUp.With(rp.url).Set(up)
			ro.replicaGen.With(rp.url).Set(float64(rp.gen.Load()))
			ro.replicaRV.With(rp.url).Set(float64(rp.rv.Load()))
		}
		fg, frv := rt.Floor()
		ro.floorGen.Set(float64(fg))
		ro.floorRV.Set(float64(frv))
		ro.healthyCount.Set(float64(healthy))
	})
	return ro
}
