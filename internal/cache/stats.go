package cache

import "sync/atomic"

// stats is the set of atomic counters a CachedEngine maintains. All
// fields are monotonically increasing except the byte/entry gauges,
// which live on the LRUs themselves and are folded in at Snapshot time.
type stats struct {
	vectorHits      atomic.Int64
	vectorMisses    atomic.Int64
	vectorEvictions atomic.Int64
	resultHits      atomic.Int64
	resultMisses    atomic.Int64
	resultEvictions atomic.Int64
	// computes counts actual power-iteration kernel invocations issued
	// by the cache (term solves, full query solves).
	computes atomic.Int64
	// warmStarts counts term solves that were warm-started from the
	// vector their term's slot held, solved under other rates.
	warmStarts atomic.Int64
}

// SideStats is one cache side's (term vectors or results) counter
// block in a StatsSnapshot.
type SideStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budgetBytes"`
}

// StatsSnapshot is a point-in-time copy of a CachedEngine's counters,
// the payload of the server's /stats endpoint.
type StatsSnapshot struct {
	Vector            SideStats `json:"vector"`
	Result            SideStats `json:"result"`
	SingleflightDedup int64     `json:"singleflightDedup"`
	Computes          int64     `json:"computes"`
	WarmStarts        int64     `json:"warmStarts"`
	Prewarmed         int64     `json:"prewarmed"` // inert, always 0: see CachedEngine.Close
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is read atomically; the set is not globally atomic, which is
// fine for monitoring).
func (c *CachedEngine) Stats() StatsSnapshot {
	return StatsSnapshot{
		Vector: SideStats{
			Hits:        c.stats.vectorHits.Load(),
			Misses:      c.stats.vectorMisses.Load(),
			Evictions:   c.stats.vectorEvictions.Load(),
			Entries:     int64(c.vectors.Len()),
			Bytes:       c.vectors.Bytes(),
			BudgetBytes: c.vectors.Budget(),
		},
		Result: SideStats{
			Hits:        c.stats.resultHits.Load(),
			Misses:      c.stats.resultMisses.Load(),
			Evictions:   c.stats.resultEvictions.Load(),
			Entries:     int64(c.results.Len()),
			Bytes:       c.results.Bytes(),
			BudgetBytes: c.results.Budget(),
		},
		SingleflightDedup: c.flights.dedup.Load(),
		Computes:          c.stats.computes.Load(),
		WarmStarts:        c.stats.warmStarts.Load(),
	}
}
