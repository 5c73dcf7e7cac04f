// Package precompute implements the [BHP04]-style ObjectRank
// precomputation that the paper names as its remedy for slow
// exploratory search on the large corpora ("precompute ObjectRank2
// values as in [BHP04]", Section 6.2).
//
// The key property making this exact rather than heuristic: the
// ObjectRank2 fixpoint r = d·A·r + (1−d)·s is LINEAR in the jump
// distribution s, so for a multi-keyword query whose base distribution
// is a convex combination of the per-term base distributions,
//
//	s(Q) = Σ_t γ_t · ŝ_t   ⇒   r(Q) = Σ_t γ_t · r_t
//
// where r_t is the converged per-term score vector and γ_t is the
// term's share of the combined base mass. A Store therefore holds one
// converged vector per vocabulary term (optionally truncated to its
// top-K entries, as [BHP04] stores top-k lists) plus the term's raw
// base mass Z_t, and answers arbitrary weighted multi-keyword queries
// by linear combination — no power iteration at query time.
package precompute

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

// Entry is one node's precomputed score for a term.
type Entry struct {
	Node  int32
	Score float64
}

// termData is a term's truncated score vector and base mass.
type termData struct {
	Entries []Entry // sorted by descending score
	// Z is the term's unnormalized base mass Σ_v IRScore(v, {t}):
	// the combination coefficient numerator.
	Z float64
}

// Store holds precomputed per-term ObjectRank2 vectors.
type Store struct {
	topK    int
	n       int // graph size, for validation
	graphFP uint64
	rates   []float64
	terms   map[string]termData
}

// BuildOptions control Store construction.
type BuildOptions struct {
	// TopK truncates each term's stored vector to its K highest-scoring
	// nodes (0 = keep everything). [BHP04] stores truncated lists; the
	// combination then ranks within the union of the per-term lists.
	TopK int
	// Workers parallelizes whole Solve calls (0/1 = one at a time). Each
	// worker owns whole groups of core.DefaultBlockSize terms.
	Workers int
}

// Build runs one single-term ObjectRank2 fixpoint per given term —
// handed to Pinned.Solve core.DefaultBlockSize terms at a time, which
// bounds the score vectors live at once — and stores the results. The
// whole build is pinned to ONE rates snapshot taken at entry, so every
// per-term vector — and the recorded rate vector the store validates
// against — reflects a single consistent rate assignment even if
// SetRates lands mid-build. Terms with empty base sets are skipped. Build is BuildCtx under a background context; use
// BuildCtx to make a long build abortable.
func Build(eng *core.Engine, terms []string, opts BuildOptions) *Store {
	st, _ := BuildCtx(context.Background(), eng, terms, opts)
	return st
}

// BuildCtx is Build under a cancellable context: each panel's fixpoints
// run with ctx attached (so a cancellation lands within one kernel
// sweep), no new panels are started after ctx dies, and the ctx error
// is returned alongside the PARTIAL store covering the terms whose
// columns converged before the cutoff (a cancelled column publishes
// nothing). A partial store is internally consistent — every stored
// vector is fully converged under the pinned rates — but covers fewer
// terms; callers that require completeness must discard it when
// err != nil.
func BuildCtx(ctx context.Context, eng *core.Engine, terms []string, opts BuildOptions) (*Store, error) {
	pin := eng.Pin()
	c := pin.Corpus()
	st := &Store{
		topK:    opts.TopK,
		n:       c.Graph().NumNodes(),
		graphFP: c.Graph().Fingerprint(),
		rates:   pin.Rates().Vector(),
		terms:   make(map[string]termData, len(terms)),
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	// Force the shared warm-start cache before fanning out.
	eng.GlobalRank()

	var panels [][]string
	for lo := 0; lo < len(terms); lo += core.DefaultBlockSize {
		hi := lo + core.DefaultBlockSize
		if hi > len(terms) {
			hi = len(terms)
		}
		panels = append(panels, terms[lo:hi])
	}

	workers := opts.Workers
	if workers <= 1 {
		for _, panel := range panels {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			if err := buildPanel(ctx, pin, panel, opts.TopK, st, nil); err != nil {
				return st, err
			}
		}
		return st, nil
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan []string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for panel := range ch {
				// Error = ctx died mid-panel; completed columns were
				// already stored, keep draining remaining panels.
				_ = buildPanel(ctx, pin, panel, opts.TopK, st, &mu)
			}
		}()
	}
feed:
	for _, panel := range panels {
		select {
		case ch <- panel:
		case <-ctx.Done():
			break feed
		}
	}
	close(ch)
	wg.Wait()
	return st, ctx.Err()
}

// buildPanel solves one panel of terms through one Pinned.Solve and
// stores every column that completed. Terms with zero base mass are
// skipped without occupying a panel column. mu, when non-nil, guards
// the store map (concurrent-panel builds).
func buildPanel(ctx context.Context, pin *core.Pinned, terms []string, topK int, st *Store, mu *sync.Mutex) error {
	eng := pin.Engine()
	names := make([]string, 0, len(terms))
	zs := make([]float64, 0, len(terms))
	qs := make([]*ir.Query, 0, len(terms))
	for _, t := range terms {
		q := ir.NewQuery(t)
		// Base mass BEFORE normalization: recomputed from the index so
		// the combination coefficients are exact.
		z := 0.0
		for _, sd := range eng.Index().BaseSet(q) {
			z += sd.Score
		}
		if z == 0 {
			continue
		}
		names = append(names, t)
		zs = append(zs, z)
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return ctx.Err()
	}
	results, err := pin.Solve(ctx, core.SolveSpec{Queries: qs})
	for i, res := range results {
		if res == nil {
			continue // column cancelled before convergence
		}
		td := termData{Entries: collectEntries(eng, res, topK), Z: zs[i]}
		if mu != nil {
			mu.Lock()
		}
		st.terms[names[i]] = td
		if mu != nil {
			mu.Unlock()
		}
	}
	return err
}

// collectEntries converts a converged RankResult into the store's
// sorted, truncated entry list and recycles the score vector.
func collectEntries(eng *core.Engine, res *core.RankResult, topK int) []Entry {
	entries := make([]Entry, 0, len(res.Scores))
	for v, s := range res.Scores {
		if s > 0 {
			entries = append(entries, Entry{Node: int32(v), Score: s})
		}
	}
	eng.Release(res)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].Node < entries[j].Node
	})
	if topK > 0 && len(entries) > topK {
		entries = entries[:topK]
	}
	return entries
}

// Terms returns the number of stored terms.
func (s *Store) Terms() int { return len(s.terms) }

// Has reports whether the term has a precomputed vector.
func (s *Store) Has(term string) bool {
	_, ok := s.terms[term]
	return ok
}

// TopK returns the per-term truncation limit (0 = untruncated).
func (s *Store) TopK() int { return s.topK }

// Rates returns the rate vector the store was built under; a store is
// only valid for engines running the same rates.
func (s *Store) Rates() []float64 {
	return append([]float64(nil), s.rates...)
}

// Query answers a weighted multi-keyword query by linear combination of
// the precomputed per-term vectors, returning the top-k nodes. The
// second result reports whether EVERY positive-weight query term was
// precomputed; if false the combination covers only the known terms.
// With an untruncated store the scores equal a fresh ObjectRank2
// execution's (up to fixpoint tolerance).
//
// The combination weight of term t is γ_t ∝ qtf-saturated weight × Z_t,
// mirroring how Engine.BaseSet mixes per-term contributions before
// normalizing to a probability vector.
func (s *Store) Query(q *ir.Query, k int) ([]rank.Ranked, bool) {
	terms := q.Terms()
	weights := q.Weights()
	type part struct {
		td    termData
		gamma float64
	}
	var parts []part
	complete := true
	total := 0.0
	for i, t := range terms {
		w := weights[i]
		if w <= 0 {
			continue
		}
		td, ok := s.terms[t]
		if !ok {
			complete = false
			continue
		}
		g := qtfSat(w) * td.Z
		parts = append(parts, part{td: td, gamma: g})
		total += g
	}
	if total == 0 {
		return nil, complete
	}
	// Dense accumulator + touched list: far cheaper than a map for the
	// hot query path, and the touched list keeps the result collection
	// proportional to the union of the per-term lists.
	combined := make([]float64, s.n)
	seen := make([]bool, s.n)
	var touched []int32
	for _, p := range parts {
		c := p.gamma / total
		for _, e := range p.td.Entries {
			combined[e.Node] += c * e.Score
			if !seen[e.Node] {
				seen[e.Node] = true
				touched = append(touched, e.Node)
			}
		}
	}
	ranked := make([]rank.Ranked, 0, len(touched))
	for _, v := range touched {
		ranked = append(ranked, rank.Ranked{Node: graph.NodeID(v), Score: combined[v]})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		return ranked[i].Node < ranked[j].Node
	})
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked, complete
}

// qtfSat mirrors ir's query-side BM25 saturation with the default k3.
func qtfSat(w float64) float64 {
	const k3 = 1000
	return (k3 + 1) * w / (k3 + w)
}

// storeSnapshot is the gob wire form. GraphFP was added after the
// format shipped; gob leaves absent fields zero, so a pre-fingerprint
// file loads with GraphFP == 0 and ValidFor falls back to the original
// size-only graph check.
type storeSnapshot struct {
	Version int
	TopK    int
	N       int
	GraphFP uint64
	Rates   []float64
	Terms   map[string]termData
}

const storeVersion = 1

// Save writes the store to w.
func (s *Store) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(&storeSnapshot{
		Version: storeVersion,
		TopK:    s.topK,
		N:       s.n,
		GraphFP: s.graphFP,
		Rates:   s.rates,
		Terms:   s.terms,
	})
}

// Load reads a store from r.
func Load(r io.Reader) (*Store, error) {
	var snap storeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("precompute: decode: %w", err)
	}
	if snap.Version != storeVersion {
		return nil, fmt.Errorf("precompute: snapshot version %d, want %d", snap.Version, storeVersion)
	}
	return &Store{topK: snap.TopK, n: snap.N, graphFP: snap.GraphFP, rates: snap.Rates, terms: snap.Terms}, nil
}

// SaveFile writes the store to path through storage.AtomicWriteFile
// (temp file, fsync, rename): a save that fails or is cut short leaves
// the file previously at path in place and complete.
func (s *Store) SaveFile(path string) error {
	return storage.AtomicWriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		if err := s.Save(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// LoadFile reads a store from path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
}

// ValidFor reports whether the store was built over the engine's
// CURRENT corpus generation under its current rate vector. The graph
// comparison uses graph.Fingerprint — a content digest, so a corpus
// swap to a different graph invalidates the store even when node counts
// coincide; stores saved before fingerprints existed (GraphFP 0 on
// load) fall back to the original size-only check. The rates comparison
// is graph.SameRateVector — the predicate the serving cache's rates key
// (core.Pinned.RatesKey) is the hash of — so "store rates match live
// rates" and "cache entry matches live rates" cannot drift apart.
//
// Callers revalidating around swaps should pin first and compare
// against the pinned corpus; at engine level the check is simply
// re-run per generation.
func (s *Store) ValidFor(eng *core.Engine) bool {
	g := eng.Graph()
	if g.NumNodes() != s.n {
		return false
	}
	if s.graphFP != 0 && g.Fingerprint() != s.graphFP {
		return false
	}
	return graph.SameRateVector(eng.Rates().Vector(), s.rates)
}
