// Package profile implements the per-user personalization tier: a
// precomputed basis of per-term authority-flow fixpoints, durable user
// profiles stored as a sparse mixture over that basis plus a compact
// rates-delta, and the serving/learning paths that combine and train
// them.
//
// The mathematical substrate is fixpoint linearity — what makes
// [BHP04]-style per-keyword vectors exact rather than heuristic; the
// serving cache's assembled multi-keyword answers rest on it too, and
// both blend through the one rank.Combine (internal/conformance
// referees the property itself): the ObjectRank2
// fixpoint r = d·A·r + (1−d)·s is linear in the jump distribution s, so
// a personalized jump
//
//	s_p = (1−β)·ŝ(Q) + β·Σ_t m̂_t·ŝ_t
//
// (the query's own base distribution blended with the profile's
// normalized topic mixture m̂ over basis terms t) has the fixpoint
//
//	r_p = (1−β)·r(Q) + β·Σ_t m̂_t·r_t
//
// — a dense linear combination of the query's fixpoint and precomputed
// per-term basis fixpoints, costing O(|mixture|·|V|) per query instead
// of a per-user power iteration. The combination is EXACT with respect
// to the personalized jump up to convergence tolerance (each combined
// vector is itself a converged solve); Pinned.Solve with a Jump spec
// solves the same jump directly so tests pin the agreement to ≤1e-9.
package profile

import (
	"context"
	"fmt"
	"sort"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// DefaultBasisSize is the number of topic terms a basis covers when the
// caller does not choose one: enough to span the head of a corpus
// vocabulary without making rebuild-after-swap expensive.
const DefaultBasisSize = 64

// Basis is a panel of per-term converged fixpoint vectors over one
// pinned (generation, rates) identity. It is immutable after
// construction and shared read-only by every combine; invalidation is
// by replacement (the manager compares the stamp against each request's
// pin and rebuilds on mismatch), never by mutation.
type Basis struct {
	generation   uint64
	ratesVersion uint64
	ratesKey     uint64 // pin.RatesKey() of the build rates
	n            int    // graph size every vector is sized for

	terms []string
	index map[string]int
	vecs  [][]float64 // converged r_t per term, dense
	bytes int64
}

// Generation returns the corpus generation the basis was built against.
func (b *Basis) Generation() uint64 { return b.generation }

// RatesVersion returns the rates version the basis was built against.
func (b *Basis) RatesVersion() uint64 { return b.ratesVersion }

// RatesKey returns the rates fingerprint (core.Pinned.RatesKey) of the
// build rates — the serving cache's key component.
func (b *Basis) RatesKey() uint64 { return b.ratesKey }

// Terms returns the basis topic terms (sorted).
func (b *Basis) Terms() []string { return append([]string(nil), b.terms...) }

// Size returns the number of basis terms.
func (b *Basis) Size() int { return len(b.terms) }

// Bytes returns the approximate resident size of the basis vectors.
func (b *Basis) Bytes() int64 { return b.bytes }

// Has reports whether term has a basis vector.
func (b *Basis) Has(term string) bool {
	_, ok := b.index[term]
	return ok
}

// ValidFor reports whether the basis matches a pin's (generation,
// rates) identity — the per-request staleness check of the combine
// path. The rates comparison is by the pin's RatesKey, the same
// fingerprint the serving cache keys on, so "basis matches pin" and
// "cache entry matches pin" cannot drift apart.
func (b *Basis) ValidFor(pin *core.Pinned) bool {
	return b.generation == pin.Generation() && b.ratesKey == pin.RatesKey()
}

// BasisTerms selects the topic-term panel for a basis over the pinned
// corpus: the `size` highest-document-frequency vocabulary terms (ties
// broken alphabetically), the head of the vocabulary where both query
// traffic and feedback expansion terms concentrate. size <= 0 means
// DefaultBasisSize; a size beyond the vocabulary is clamped.
func BasisTerms(pin *core.Pinned, size int) []string {
	if size <= 0 {
		size = DefaultBasisSize
	}
	ix := pin.Corpus().Index()
	terms := ix.TermsWithDF(1)
	sort.Slice(terms, func(i, j int) bool {
		di, dj := ix.DF(terms[i]), ix.DF(terms[j])
		if di != dj {
			return di > dj
		}
		return terms[i] < terms[j]
	})
	if len(terms) > size {
		terms = terms[:size]
	}
	sort.Strings(terms)
	return terms
}

// BuildBasis precomputes one converged fixpoint per topic term against
// the pinned (generation, rates) state, solved in one Pinned.Solve
// panel: every vector reflects one consistent corpus and rate
// assignment even if publishes land mid-build. Terms with empty base
// sets are skipped. On cancellation the partial build is discarded and
// ctx's error returned — a basis is only ever complete.
func BuildBasis(ctx context.Context, pin *core.Pinned, terms []string) (*Basis, error) {
	return buildBasis(ctx, cache.New(pin.Engine(), cache.Options{}), pin, terms)
}

// buildBasis is BuildBasis read through the serving cache vc
// (cache.CachedEngine.TermVectorsPinnedCtx): a term whose vector is
// resident there takes it as it is, and the rest are solved in the one
// panel and stay resident. The basis holds vc's own arrays, not copies.
// A resident vector may have been warm-started from a previous rates
// version's; it reaches the same fixpoint as a cold solve, within the
// solve tolerance.
func buildBasis(ctx context.Context, vc *cache.CachedEngine, pin *core.Pinned, terms []string) (*Basis, error) {
	c := pin.Corpus()
	b := &Basis{
		generation:   pin.Generation(),
		ratesVersion: pin.Version(),
		ratesKey:     pin.RatesKey(),
		n:            c.Graph().NumNodes(),
		index:        make(map[string]int, len(terms)),
	}
	for _, t := range terms {
		if len(c.Index().BaseSet(ir.NewQuery(t))) == 0 {
			continue
		}
		b.index[t] = len(b.terms)
		b.terms = append(b.terms, t)
	}
	if len(b.terms) == 0 {
		return nil, fmt.Errorf("profile: no basis term has a non-empty base set")
	}
	vecs, err := vc.TermVectorsPinnedCtx(ctx, pin, b.terms)
	if err != nil {
		return nil, err
	}
	// The vectors stay the cache's; the basis only reads them, lock-free,
	// for the generation's lifetime.
	b.vecs = vecs
	for _, v := range vecs {
		b.bytes += int64(len(v)) * 8
	}
	return b, nil
}

// MixtureJump materializes the personalized jump distribution
// s_p = (1−β)·base + β·Σ_t m̂_t·ŝ_t for a normalized mixture over basis
// terms, where ŝ_t is term t's normalized single-term base
// distribution. This is the reference-path input the agreement tests
// hand to Pinned.Solve as a Jump; the serving path never
// materializes it (it combines converged vectors instead).
func (b *Basis) MixtureJump(pin *core.Pinned, base []ir.ScoredDoc, mixture map[string]float64, beta float64) []float64 {
	jump := make([]float64, b.n)
	for _, sd := range base {
		jump[sd.Doc] = (1 - beta) * sd.Score
	}
	ix := pin.Corpus().Index()
	for ti, m := range normalizedMixture(b, mixture) {
		if m == 0 {
			continue
		}
		single := ix.BaseSet(ir.NewQuery(b.terms[ti]))
		z := 0.0
		for _, sd := range single {
			z += sd.Score
		}
		if z == 0 {
			continue
		}
		for _, sd := range single {
			jump[sd.Doc] += beta * m * sd.Score / z
		}
	}
	return jump
}

// Combine computes the personalized score vector
// r_p = (1−β)·qscores + β·Σ_t m̂_t·r_t into a fresh dense vector.
// Mixture terms without a basis vector are dropped from the
// normalization (the remaining terms absorb their share); an empty or
// fully-unknown mixture returns a plain copy of qscores (β degenerates
// to 0 — an untrained profile IS the global ranking).
func (b *Basis) Combine(qscores []float64, mixture map[string]float64, beta float64) []float64 {
	out := make([]float64, len(qscores))
	norm := normalizedMixture(b, mixture)
	if len(norm) == 0 || beta <= 0 {
		copy(out, qscores)
		return out
	}
	w, vs := []float64{1 - beta}, [][]float64{qscores}
	for ti, m := range norm {
		if m != 0 {
			w, vs = append(w, beta*m), append(vs, b.vecs[ti])
		}
	}
	return rank.Combine(out, w, vs)
}

// normalizedMixture drops mixture terms without a basis vector and
// normalizes the survivors to sum to 1, returning one weight per basis
// index (nil when no term survives). Sums run in basis-index order, not
// map order, so equal inputs give bit-equal weights on every call.
func normalizedMixture(b *Basis, mixture map[string]float64) []float64 {
	var norm []float64
	for t, w := range mixture {
		if ti, ok := b.index[t]; ok && w > 0 {
			if norm == nil {
				norm = make([]float64, len(b.terms))
			}
			norm[ti] = w
		}
	}
	sum := 0.0
	for _, w := range norm {
		sum += w
	}
	for i := range norm {
		norm[i] /= sum
	}
	return norm
}
