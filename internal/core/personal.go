package core

// personal.go holds the engine primitive of the personalization tier
// (internal/profile) that is not a SolveSpec field: derived custom-rates
// views. They operate strictly within one pinned (generation,
// ratesVersion) state, so a personalized execution can never mix corpus
// generations any more than a plain pinned one.

import "authorityflow/internal/graph"

// WithRates returns a derived pinned view that ranks, explains and
// reformulates under the given rates (cloned) instead of the snapshot's
// published ones, while keeping the pinned CORPUS generation — the
// primitive behind per-profile serving, where a caller's effective
// rates are the published vector plus a private delta. The rates are
// validated against the pinned generation's schema.
//
// The derived view is read-only personalization state, not a
// publication: it reports the SAME version token as its parent pin, so
// a reformulation computed on the derived view can still be published
// globally with TrySetRates(rates, pin.Version()) under the usual
// optimistic-concurrency contract, or kept private as a profile delta.
// Its RatesKey is its own rates' — caches keyed on (Generation,
// RatesKey) never confuse it with the parent — and it has no
// PreviousRatesKey.
// The generation's global PageRank warm-start cache is shared with the
// parent (warm starts do not affect the fixpoint a solve converges to).
func (p *Pinned) WithRates(r *graph.Rates) (*Pinned, error) {
	if err := validateRates(p.st.gen.corpus.g, r); err != nil {
		return nil, err
	}
	return &Pinned{
		e:  p.e,
		st: &engineState{gen: p.st.gen, snap: newRatesSnapshot(r.Clone(), p.st.snap.version, nil)},
	}, nil
}
