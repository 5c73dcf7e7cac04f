package profile

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/lru"
)

// DefaultBeta is the personalized-jump blend factor of a profile that
// does not carry its own: enough mixture weight to reorder ties and
// near-ties, not enough to drown the query.
const DefaultBeta = 0.3

const (
	// learningRate is the EWMA factor of mixture training: after a
	// feedback round, mixture = (1−η)·old + η·new, so recent feedback
	// dominates without wiping history.
	learningRate = 0.5
	// maxMixture caps the topic terms a profile's mixture retains.
	maxMixture = 16
	// cacheBytes is the byte budget of the decoded-profile LRU. Combined
	// answers live in the serving cache's result LRU.
	cacheBytes = 16 << 20
)

// Options configure a Manager.
type Options struct {
	// Dir is the durable store directory, created if needed. Required:
	// the in-memory tier is a bounded cache in front of it, and a
	// profile it evicts is read back from here.
	Dir string
	// BasisSize is the number of topic terms in the panel (0 =
	// DefaultBasisSize).
	BasisSize int
	// BaseRank, if non-nil, overrides how the query's own fixpoint is
	// solved on the blend path. The result must follow the
	// Pinned.Solve contract (caller releases; a Shared vector is only
	// read).
	BaseRank func(ctx context.Context, pin *core.Pinned, q *ir.Query) (*core.RankResult, error)
	// Cache is the serving cache every blend reads its term vectors
	// through and stores its answer in, and without a BaseRank the
	// query's own fixpoint is its RankPinnedCtx. The server sets it to the
	// global tier's cache, so personalized answers share its vectors and
	// its result LRU. Nil: NewManager builds one for the manager alone.
	Cache *cache.CachedEngine
}

// Source labels which path produced a personalized answer.
type Source string

const (
	// SourceHit: served from the serving cache's result LRU, where the
	// answer sits under the profile's (id, rev) scope.
	SourceHit Source = "hit"
	// SourceCombined: the blend ran (the personalized fast path).
	SourceCombined Source = "combined"
	// SourceGlobal: the profile has no usable mixture, the answer IS the
	// global ranking.
	SourceGlobal Source = "global"
)

// Answer is one personalized top-k result. Its Results are shared with
// the serving cache and read-only.
type Answer struct {
	ID           string
	Generation   uint64
	RatesVersion uint64
	RatesKey     uint64
	Rev          uint64
	Personalized bool
	// BaseSet and Iterations describe the query's own solve (the
	// (1−β)·r(Q) component); combining adds no iterations.
	BaseSet    int
	Iterations int
	// Results is the top-k list in the serving cache's item shape, so
	// global and personalized answers render through one path.
	Results []cache.ResultItem
}

// Stats is a point-in-time snapshot of the manager's counters, the
// substrate of the afq_profile_* metric families.
type Stats struct {
	StoreHits   uint64 `json:"storeHits"`   // profile LRU hits
	StoreMisses uint64 `json:"storeMisses"` // profile LRU misses (disk consulted)
	DiskLoads   uint64 `json:"diskLoads"`   // records actually decoded from disk
	StoreBytes  int64  `json:"storeBytes"`  // resident decoded-profile bytes
	Resident    int    `json:"resident"`    // resident decoded profiles

	// AnswerHits and AnswerMisses count lookups of the profile-scoped
	// entries of the serving cache's result LRU.
	AnswerHits   uint64 `json:"answerHits"`
	AnswerMisses uint64 `json:"answerMisses"`

	BasisTerms      int    `json:"basisTerms"`
	BasisGeneration uint64 `json:"basisGeneration"`

	Trains    uint64 `json:"trains"`
	Combines  uint64 `json:"combines"`
	Evictions uint64 `json:"evictions"` // decoded profiles evicted from the LRU
}

// Manager ties the term panel, the serving cache, the durable store and
// the decoded-profile LRU into the personalization serving surface. All
// methods are safe for concurrent use. A resident profile is read under
// its LRU shard mutex alone; writes, and reads that go to the durable
// store, serialize per id on a write stripe.
type Manager struct {
	opts Options
	disk *DiskStore

	basis atomic.Pointer[Basis] // the panel of the last generation asked for

	profiles *lru.Sharded

	// writeMu stripes every read-modify-write of a profile record — Put,
	// a training round, Delete — so two writers of one id can neither
	// lose each other's update nor hand out the same Rev.
	writeMu [16]sync.Mutex

	storeHits    atomic.Uint64
	storeMisses  atomic.Uint64
	diskLoads    atomic.Uint64
	answerHits   atomic.Uint64
	answerMisses atomic.Uint64
	trains       atomic.Uint64
	combines     atomic.Uint64
	evictions    atomic.Int64
}

// NewManager builds a personalization manager over an engine and opens
// the durable store under opts.Dir.
func NewManager(eng *core.Engine, opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("profile: Options.Dir is required: the durable store is where evicted profiles are read back from")
	}
	if opts.BasisSize <= 0 {
		opts.BasisSize = DefaultBasisSize
	}
	if opts.Cache == nil {
		opts.Cache = cache.New(eng, cache.Options{})
	}
	if opts.BaseRank == nil {
		opts.BaseRank = opts.Cache.RankPinnedCtx
	}
	disk, err := NewDiskStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{opts: opts, disk: disk}
	m.profiles = lru.New(cacheBytes, 16, &m.evictions)
	return m, nil
}

// BasisFor returns the term panel of the pin's generation, selected on
// the first ask in that generation. It solves nothing — the vectors a
// blend needs are the serving cache's, keyed by the pin's (generation,
// rates) — so a rates publish leaves the panel as it is, and a panel can
// never be read against another generation's pin. The error is always
// nil.
func (m *Manager) BasisFor(_ context.Context, pin *core.Pinned) (*Basis, error) {
	return m.panel(pin), nil
}

// panel is BasisFor without the error.
func (m *Manager) panel(pin *core.Pinned) *Basis {
	if b := m.basis.Load(); b != nil && b.generation == pin.Generation() {
		return b
	}
	b := &Basis{generation: pin.Generation(), terms: BasisTerms(pin, m.opts.BasisSize)}
	m.basis.Store(b)
	return b
}

// Get returns the profile under id, consulting the LRU then the durable
// store. The returned profile is shared and must not be mutated.
func (m *Manager) Get(id string) (*Profile, error) {
	if v, ok := m.profiles.Get(id); ok {
		m.storeHits.Add(1)
		return v.(*Profile), nil
	}
	// A miss reads the store under the id's write stripe, so the record
	// it caches can never displace a newer one a writer cached meanwhile.
	mu := m.writeLock(id)
	mu.Lock()
	defer mu.Unlock()
	return m.load(id)
}

// load is Get for a caller that holds id's write stripe.
func (m *Manager) load(id string) (*Profile, error) {
	if !ValidID(id) {
		return nil, ErrNotFound
	}
	if v, ok := m.profiles.Get(id); ok {
		m.storeHits.Add(1)
		return v.(*Profile), nil
	}
	m.storeMisses.Add(1)
	p, err := m.disk.Load(id)
	if err != nil {
		return nil, err
	}
	m.diskLoads.Add(1)
	m.profiles.Put(id, p, p.footprint())
	return p, nil
}

// writeLock returns the stripe that serializes writers of id.
func (m *Manager) writeLock(id string) *sync.Mutex { return &m.writeMu[fnv1a(id)&15] }

// Put replaces the declared interests — mixture and beta — of the
// profile under p.ID, creating it if needed, and persists and caches the
// result. The revision is the stored one plus one and the trained stamps
// are the stored ones: both are the manager's, so p's are ignored. The
// stored value is a sanitized clone; the caller's copy is not retained.
func (m *Manager) Put(p *Profile) (*Profile, error) {
	if !ValidID(p.ID) {
		return nil, fmt.Errorf("profile: invalid id %q", p.ID)
	}
	mu := m.writeLock(p.ID)
	mu.Lock()
	defer mu.Unlock()
	cp := p.Clone()
	cp.Rev, cp.TrainedGeneration, cp.TrainedRatesVersion = 1, 0, 0
	if prev, err := m.load(p.ID); err == nil {
		cp.Rev, cp.TrainedGeneration, cp.TrainedRatesVersion = prev.Rev+1, prev.TrainedGeneration, prev.TrainedRatesVersion
	}
	for t, w := range cp.Mixture {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			delete(cp.Mixture, t)
		}
	}
	capMixture(cp.Mixture, maxMixture)
	normalizeMixture(cp.Mixture)
	if cp.Beta < 0 || cp.Beta >= 1 || math.IsNaN(cp.Beta) {
		cp.Beta = 0 // 0 = use the manager default
	}
	if err := m.disk.Save(cp); err != nil {
		return nil, err
	}
	m.profiles.Put(cp.ID, cp, cp.footprint())
	return cp, nil
}

// Delete removes a profile from the cache and the durable store.
func (m *Manager) Delete(id string) error {
	mu := m.writeLock(id)
	mu.Lock()
	defer mu.Unlock()
	m.profiles.Remove(id)
	return m.disk.Delete(id)
}

// beta resolves a profile's effective blend factor.
func (m *Manager) beta(p *Profile) float64 {
	if p.Beta > 0 && p.Beta < 1 {
		return p.Beta
	}
	return DefaultBeta
}

// fnv1a is the 64-bit FNV-1a hash; the durable store's directory fan
// depends on its exact values.
func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// QueryCtx serves a personalized top-k answer for the profile under id:
// the serving cache's entry under the profile's (id, rev) scope, else
// the Blend r_p = (1−β)·r(Q) + β·Σ m̂_t·r_t over its panel terms, stored
// there. A profile with no usable mixture gets the global ranking
// through the cache's global path, so a hit is personalized by
// construction. The answer carries the pin's generation and version.
func (m *Manager) QueryCtx(ctx context.Context, pin *core.Pinned, id string, q *ir.Query, k int) (*Answer, Source, error) {
	prof, err := m.Get(id)
	if err != nil {
		return nil, "", err
	}
	c, sc := m.opts.Cache, cache.Scope{ID: id, Rev: prof.Rev}
	if ans := c.LookupScoped(pin, sc, q, k); ans != nil {
		m.answerHits.Add(1)
		return answerOf(pin, sc, ans, true), SourceHit, nil
	}
	m.answerMisses.Add(1)
	if terms, _ := m.panel(pin).mixtureWeights(prof.Mixture); len(terms) == 0 {
		ans, err := c.QueryModePinnedCtx(ctx, pin, q, k, core.ModeAuthority)
		if err != nil {
			return nil, "", err
		}
		m.combines.Add(1)
		return answerOf(pin, sc, ans, false), SourceGlobal, nil
	}
	qres, err := m.opts.BaseRank(ctx, pin, q)
	if err != nil {
		return nil, "", err
	}
	eng := pin.Engine()
	defer eng.Release(qres)
	combined, err := m.Blend(ctx, pin, qres.Scores, prof.Mixture, m.beta(prof))
	if err != nil {
		return nil, "", err
	}
	defer eng.Release(&core.RankResult{Scores: combined})
	ans := c.StoreScoped(pin, sc, q, k, combined, qres.Iterations, len(qres.Base), qres.InBase)
	m.combines.Add(1)
	return answerOf(pin, sc, ans, true), SourceCombined, nil
}

// answerOf labels a serving-cache answer as the profile's.
func answerOf(pin *core.Pinned, sc cache.Scope, a *cache.Answer, personalized bool) *Answer {
	return &Answer{ID: sc.ID, Generation: a.Generation, RatesVersion: a.Version, RatesKey: pin.RatesKey(), Rev: sc.Rev,
		Personalized: personalized, BaseSet: a.BaseSet, Iterations: a.Iterations, Results: a.Results}
}

// Blend returns the personalized score vector
// r_p = (1−β)·qscores + β·Σ_t m̂_t·r_t of a mixture over the pin's panel.
// Each r_t is read through the manager's serving cache in ONE
// TermVectorsPinnedCtx call: a resident vector is used as it is, and the
// missing ones are solved in one Pinned.Solve and stay resident. The
// blend runs in panel order into a vector drawn from the engine's
// buffer pool; hand it back with Release (as a RankResult's Scores) once
// read. Mixture terms outside the panel are dropped from the
// normalization (the remaining terms absorb their share); when none
// remains, or β <= 0, Blend returns nil and solves nothing — an
// untrained profile IS the global ranking.
func (m *Manager) Blend(ctx context.Context, pin *core.Pinned, qscores []float64, mixture map[string]float64, beta float64) ([]float64, error) {
	terms, weights := m.panel(pin).mixtureWeights(mixture)
	if len(terms) == 0 || beta <= 0 {
		return nil, nil
	}
	vecs, err := m.opts.Cache.TermVectorsPinnedCtx(ctx, pin, terms)
	if err != nil {
		return nil, err
	}
	w := []float64{1 - beta}
	for _, x := range weights {
		w = append(w, beta*x)
	}
	return pin.Combine(w, append([][]float64{qscores}, vecs...)), nil
}

// TrainCtx runs one relevance-feedback round against the caller's
// profile instead of the global engine vector: the content half of
// ReformulateWeightedCtx (Eq. 11–12, under the pinned rates) expands the
// query, and the expansion terms plus the query's own terms that are in
// the panel move the profile's mixture (EWMA over panel members).
// The structure half (Eq. 13) is not run: every personalized answer is
// solved under the published rates, so a profile has no rates to train,
// and the returned reformulation carries the pinned rates unchanged.
// Nothing is published to the engine — training a profile can never
// race a global reformulation. The returned profile is the persisted
// post-training record.
func (m *Manager) TrainCtx(ctx context.Context, pin *core.Pinned, id string, q *ir.Query, feedback []*core.Subgraph, confidences []float64, opts *core.ReformulateOptions) (*core.Reformulation, *Profile, error) {
	mu := m.writeLock(id)
	mu.Lock()
	defer mu.Unlock()

	prof, err := m.load(id)
	if err != nil {
		return nil, nil, err
	}
	basis := m.panel(pin)
	topts := core.ContentAndStructure()
	if opts != nil {
		topts = *opts
	}
	topts.Cf = 0
	ref, err := pin.ReformulateWeightedCtx(ctx, q, feedback, confidences, topts)
	if err != nil {
		return nil, nil, err
	}

	// Feedback expansion terms (and the confirmed query terms) in the
	// panel move the mixture, EWMA-blended so recent feedback
	// dominates without erasing history.
	next := prof.Clone()
	contrib := make(map[string]float64)
	for _, wt := range ref.Expansion {
		if wt.Weight > 0 && basis.Has(wt.Term) {
			contrib[wt.Term] += wt.Weight
		}
	}
	terms, weights := q.Terms(), q.Weights()
	for i, t := range terms {
		if weights[i] > 0 && basis.Has(t) {
			contrib[t] += weights[i]
		}
	}
	if len(contrib) > 0 {
		normalizeMixture(contrib)
		normalizeMixture(next.Mixture)
		for t := range next.Mixture {
			next.Mixture[t] *= 1 - learningRate
		}
		for t, w := range contrib {
			next.Mixture[t] += learningRate * w
		}
		capMixture(next.Mixture, maxMixture)
		normalizeMixture(next.Mixture)
	}
	next.Rev++
	next.TrainedGeneration = pin.Generation()
	next.TrainedRatesVersion = pin.Version()
	if err := m.disk.Save(next); err != nil {
		return nil, nil, err
	}
	m.profiles.Put(next.ID, next, next.footprint())
	m.trains.Add(1)
	return ref, next, nil
}

// capMixture keeps only the top-n mixture terms by weight (ties by
// term, for determinism).
func capMixture(mix map[string]float64, n int) {
	if len(mix) <= n {
		return
	}
	type tw struct {
		t string
		w float64
	}
	all := make([]tw, 0, len(mix))
	for t, w := range mix {
		all = append(all, tw{t, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].t < all[j].t
	})
	for _, e := range all[n:] {
		delete(mix, e.t)
	}
}

// normalizeMixture rescales weights to sum to 1 (no-op for an empty
// map).
func normalizeMixture(mix map[string]float64) {
	sum := 0.0
	for _, w := range mix {
		sum += w
	}
	if sum <= 0 {
		return
	}
	for t := range mix {
		mix[t] /= sum
	}
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		StoreHits:    m.storeHits.Load(),
		StoreMisses:  m.storeMisses.Load(),
		DiskLoads:    m.diskLoads.Load(),
		StoreBytes:   m.profiles.Bytes(),
		Resident:     m.profiles.Len(),
		AnswerHits:   m.answerHits.Load(),
		AnswerMisses: m.answerMisses.Load(),
		Trains:       m.trains.Load(),
		Combines:     m.combines.Load(),
		Evictions:    uint64(m.evictions.Load()),
	}
	if b := m.basis.Load(); b != nil {
		s.BasisTerms, s.BasisGeneration = b.Size(), b.Generation()
	}
	return s
}
