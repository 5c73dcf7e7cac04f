// Package profile implements the per-user personalization tier: durable
// user profiles, each a sparse topic mixture over the corpus's top-DF
// term panel, and the serving/learning paths that blend and train them.
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
// normalized topic mixture m̂ over panel terms t) has the fixpoint
//
//	r_p = (1−β)·r(Q) + β·Σ_t m̂_t·r_t
//
// — a dense linear combination of the query's fixpoint and the per-term
// fixpoints of the mixture's terms, read through the serving cache like
// any other term vector, costing O(|mixture|·|V|) per query instead of a
// per-user power iteration. The combination is EXACT with respect to the
// personalized jump up to convergence tolerance (each combined vector is
// itself a converged solve); Pinned.Solve with a Jump spec solves the
// same jump directly so tests pin the agreement to ≤1e-9.
package profile

import (
	"sort"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
)

// DefaultBasisSize is the number of topic terms the panel covers when
// the caller does not choose one: enough to span the head of a corpus
// vocabulary.
const DefaultBasisSize = 64

// Basis is one corpus generation's topic-term panel: the terms a
// mixture may weight. It depends on the corpus alone, not on the rates,
// and holds no vectors — a blend reads those through the serving cache
// (Manager.Blend). Immutable after construction.
type Basis struct {
	generation uint64
	terms      []string // sorted
}

// Generation returns the corpus generation the panel was selected from.
func (b *Basis) Generation() uint64 { return b.generation }

// Terms returns the panel terms (sorted).
func (b *Basis) Terms() []string { return append([]string(nil), b.terms...) }

// Size returns the number of panel terms.
func (b *Basis) Size() int { return len(b.terms) }

// Has reports whether term is in the panel.
func (b *Basis) Has(term string) bool {
	i := sort.SearchStrings(b.terms, term)
	return i < len(b.terms) && b.terms[i] == term
}

// BasisTerms selects the topic-term panel of the pinned corpus: the
// `size` highest-document-frequency vocabulary terms (ties broken
// alphabetically), the head of the vocabulary where both query traffic
// and feedback expansion terms concentrate. Every term it returns has a
// non-empty base set. size <= 0 means DefaultBasisSize; a size beyond
// the vocabulary is clamped.
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

// MixtureJump materializes the personalized jump distribution
// s_p = (1−β)·base + β·Σ_t m̂_t·ŝ_t for a normalized mixture over panel
// terms, where ŝ_t is term t's normalized single-term base
// distribution. This is the reference-path input the agreement tests
// hand to Pinned.Solve as a Jump; the serving path never
// materializes it (it blends converged vectors instead).
func (b *Basis) MixtureJump(pin *core.Pinned, base []ir.ScoredDoc, mixture map[string]float64, beta float64) []float64 {
	jump := make([]float64, pin.Corpus().Graph().NumNodes())
	for _, sd := range base {
		jump[sd.Doc] = (1 - beta) * sd.Score
	}
	ix := pin.Corpus().Index()
	terms, weights := b.mixtureWeights(mixture)
	for i, t := range terms {
		single := ix.BaseSet(ir.NewQuery(t))
		z := 0.0
		for _, sd := range single {
			z += sd.Score
		}
		for _, sd := range single {
			jump[sd.Doc] += beta * weights[i] * sd.Score / z
		}
	}
	return jump
}

// mixtureWeights drops mixture terms outside the panel and normalizes
// the survivors to sum to 1, returning them in panel order (none when
// no term survives). Sums run in panel order, not map order, so equal
// inputs give bit-equal weights on every call.
func (b *Basis) mixtureWeights(mixture map[string]float64) (terms []string, weights []float64) {
	sum := 0.0
	for _, t := range b.terms {
		if w := mixture[t]; w > 0 {
			terms, weights = append(terms, t), append(weights, w)
			sum += w
		}
	}
	for i := range weights {
		weights[i] /= sum
	}
	return terms, weights
}
