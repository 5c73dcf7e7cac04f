package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// opKind names one operation a client issues. The order is the order
// operations are reported in.
type opKind uint8

const (
	opQuery        opKind = iota // GET /v1/query
	opBatch                      // POST /v1/query/batch of 16
	opProfileQuery               // GET /v1/query?profile=
	opExplain                    // GET /v1/explain
	opAudit                      // GET /v1/audit
	opReformulate                // GET /v1/reformulate
	opRequery                    // GET /v1/query right after the client's own publish
	numKinds
)

var kindNames = [numKinds]string{"query", "batch", "profile_query", "explain", "audit", "reformulate", "requery"}

func (k opKind) String() string { return kindNames[k] }

// batchItem is one query of a batch request (k is always the default).
type batchItem struct {
	Q    string
	Mode string
}

// step is one request of a cycle, as far as the seed decides it. The
// session steps take the rest (target, feedback ids, version token)
// from the answers that came before them in the same cycle.
type step struct {
	Kind    opKind
	Q       string
	K       int
	Mode    string // "" = authority
	Profile string
	Batch   []batchItem
	// Alt is a twin of Batch with the same hot items and other
	// never-repeated ones: the traced run sends it straight to a
	// replica after Batch went through the router, so the second
	// request costs what the first did instead of hitting its results.
	Alt []batchItem
}

// cycle is one pass of a client through its workload's script.
type cycle []step

// Workload names. Each is one traffic mix against one deployment.
const (
	wlHotZipf         = "hot_zipf"
	wlColdUniform     = "cold_uniform"
	wlSessionFeedback = "session_feedback"
	wlFleetMix        = "fleet_mix"
)

var workloadNames = []string{wlHotZipf, wlColdUniform, wlSessionFeedback, wlFleetMix}

// workloadDef is what distinguishes one workload's deployment and
// diagnostics from another's; the traffic itself is in generator.next.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists.
	Why string
	// CacheMB is the afqserver -cache-mb value (the default is 64).
	CacheMB int
	// Replicas > 1 puts an afqrouter in front of that many afqservers
	// started with -profile-dir.
	Replicas int
	// OpenRate is the fixed arrival rate of the open-loop diagnostic
	// phase in requests per second; 0 skips the phase.
	OpenRate float64
	// Ops lists the operations a cycle issues. A latency metric belongs
	// to the workloads that issue its operation and to no other.
	Ops []opKind
}

// issues reports whether the workload's cycle sends operations of kind k.
func (w workloadDef) issues(k opKind) bool {
	for _, o := range w.Ops {
		if o == k {
			return true
		}
	}
	return false
}

var workloadDefs = map[string]workloadDef{
	wlHotZipf: {Name: wlHotZipf, CacheMB: 64, Replicas: 1, OpenRate: 1000,
		Ops: []opKind{opQuery},
		Why: "Zipf single-term queries whose 208 results fit the cache: server parse/render/JSON and the result LRU do all the work, the kernel none"},
	wlColdUniform: {Name: wlColdUniform, CacheMB: 16, Replicas: 1, OpenRate: 30,
		Ops: []opKind{opQuery},
		Why: "never-repeated 2-3-term queries plus tail singles against a 16 MB cache: every request misses, so base set, kernel sweeps and top-k do the work"},
	wlSessionFeedback: {Name: wlSessionFeedback, CacheMB: 64, Replicas: 1,
		Ops: []opKind{opQuery, opReformulate, opRequery, opExplain, opAudit},
		Why: "query, reformulate, requery, explain, audit per client: every publish re-keys the caches beside the reads (warm starts, prewarmer, explain render)"},
	wlFleetMix: {Name: wlFleetMix, CacheMB: 64, Replicas: 2, OpenRate: 200,
		Ops: []opKind{opQuery, opBatch, opProfileQuery},
		Why: "afqrouter over two replicas: 80 % Zipf singles, 10 % batches of 16, 10 % profile queries, so routing, batch split/merge and basis combine are on the path"},
}

const (
	// hotZipfS is the Zipf exponent of term popularity on hot_zipf and
	// session_feedback.
	hotZipfS = 1.1
	// fleetZipfS is flatter: the replicas sit on kernel-chosen ports,
	// which decide which replica owns which term, and with s = 1.1 the
	// owner of the top term alone carries 23 % of the traffic, so one
	// run in twelve would leave the other replica under a quarter.
	fleetZipfS = 0.8
	// zipfStrata is the block length of the stratified term draws: a
	// session_feedback client finishes about one block per run.
	zipfStrata = 16
	// headDF and tailDF bound the two vocabulary classes by document
	// frequency: head terms have df ≥ headDF, tail terms
	// tailDF ≤ df < headDF.
	headDF = 10
	tailDF = 2
	// coldWarmTail is how many tail singles the cold_uniform warm-up
	// sends: enough 181 KB vectors to fill the 14 MB vector budget, so
	// that the timed phase evicts from its first second.
	coldWarmTail = 96
	// sessionWarmHead is how many of the hottest head terms the
	// session_feedback warm-up touches (the prewarmer's candidates).
	sessionWarmHead = 32
	// numProfiles is how many profiles fleet_mix stores and queries.
	numProfiles = 64
	// batchSize, batchHot and batchFresh shape one fleet_mix batch.
	batchSize  = 16
	batchHot   = 12
	batchFresh = batchSize - batchHot
	// fleetSingles is the number of plain queries in a fleet_mix cycle
	// of fleetSingles+2 requests (80 % / 10 % / 10 %).
	fleetSingles = 8
)

// vocab is the corpus vocabulary split by document frequency.
type vocab struct {
	Head []string // df ≥ headDF, most frequent first
	Tail []string // tailDF ≤ df < headDF, alphabetical
}

// newVocab classifies terms (already free of stopwords and one-letter
// tokens) by df.
func newVocab(terms []string, df func(string) int) *vocab {
	v := &vocab{}
	for _, t := range terms {
		switch d := df(t); {
		case d >= headDF:
			v.Head = append(v.Head, t)
		case d >= tailDF:
			v.Tail = append(v.Tail, t)
		}
	}
	sort.Slice(v.Head, func(i, j int) bool {
		di, dj := df(v.Head[i]), df(v.Head[j])
		if di != dj {
			return di > dj
		}
		return v.Head[i] < v.Head[j]
	})
	sort.Strings(v.Tail)
	return v
}

// zipf samples ranks 0..n-1 with P(rank i) ∝ 1/(i+1)^s, stratified: the
// unit interval is cut into strata equal parts, each block of strata
// draws visits every part once in a random order, and a draw is uniform
// within its part. Every draw still has exactly the Zipf distribution,
// but any run of draws covers the popular and the rare ranks in nearly
// fixed proportion, so how hard a run's requests are depends far less
// on its seed than with independent draws.
type zipf struct {
	cdf    []float64
	strata int
	order  []int
	at     int
}

func newZipf(n int, s float64, strata int) *zipf {
	z := &zipf{cdf: make([]float64, n), strata: strata}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(rng *rand.Rand) int {
	if z.at == len(z.order) {
		z.order, z.at = rng.Perm(z.strata), 0
	}
	u := (float64(z.order[z.at]) + rng.Float64()) / float64(z.strata)
	z.at++
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// A lane is one independent request sequence of a run. The closed-loop
// clients take lanes 0..clients-1; the traced replay, the open-loop
// phase and the batch twins take the three after. Lanes never share a
// never-repeated query, so no phase turns another's miss into a hit.
func laneReplay(clients int) int { return clients }
func laneOpen(clients int) int   { return clients + 1 }
func laneAlt(clients int) int    { return clients + 2 }
func numLanes(clients int) int   { return clients + 3 }

// generator yields the cycles of one lane of one workload, a pure
// function of (workload, seed, lane, vocabulary).
type generator struct {
	wl    string
	rng   *rand.Rand
	v     *vocab
	lane  int
	lanes int
	hot   *zipf
	fleet *zipf
	// used holds the canonical term sets this lane has already sent.
	used map[string]struct{}
	// tail is the seed's permutation of the tail class; this lane
	// sends positions tailStart + tailStride·i for i < tailCount, and
	// tailSent counts how many it has sent.
	tail       []int
	tailStart  int
	tailStride int
	tailCount  int
	tailSent   int
	// alt draws the never-repeated items of batch twins; only the
	// replay lane, whose requests are sent twice, has one.
	alt *generator
}

func laneSeed(seed int64, lane int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "afqbench/%d/%d", seed, lane)
	return int64(h.Sum64() >> 1)
}

func newGenerator(wl string, seed int64, lane, clients int, v *vocab) *generator {
	g := &generator{
		wl:    wl,
		rng:   rand.New(rand.NewSource(laneSeed(seed, lane))),
		v:     v,
		lane:  lane,
		lanes: numLanes(clients),
		hot:   newZipf(len(v.Head), hotZipfS, zipfStrata),
		fleet: newZipf(len(v.Head), fleetZipfS, zipfStrata),
		used:  make(map[string]struct{}),
		tail:  tailPerm(seed, v),
	}
	g.tailStart, g.tailStride, g.tailCount = tailShare(len(v.Tail), lane, clients)
	if wl == wlFleetMix && lane == laneReplay(clients) {
		g.alt = newGenerator(wl, seed, laneAlt(clients), clients, v)
	}
	return g
}

// tailPerm is the seed's order of the tail class, shared by the warm-up
// and every lane.
func tailPerm(seed int64, v *vocab) []int {
	return rand.New(rand.NewSource(laneSeed(seed, -1))).Perm(len(v.Tail))
}

// tailShare splits the positions of the tail permutation among the
// lanes of a run, so that no lane sends another's term: the warm-up owns
// the first coldWarmTail, the traced replay the next eighth of the
// class, the open loop the next sixteenth, and the closed-loop clients
// interleave over the rest, which is most of it because they send the
// most.
func tailShare(n, lane, clients int) (start, stride, count int) {
	warm, replay, open := coldWarm(n), max(1, n/8), max(1, n/16)
	switch lane {
	case laneReplay(clients):
		return warm, 1, replay
	case laneOpen(clients):
		return warm + replay, 1, open
	}
	first := warm + replay + open + lane
	return first, clients, max(1, (n-first+clients-1)/clients)
}

// coldWarm is how many of n tail terms the cold_uniform warm-up sends:
// coldWarmTail, or half the class on a corpus too small for that.
func coldWarm(n int) int { return min(coldWarmTail, n/2) }

// tailTerm returns the lane's next tail term. A lane that has sent its
// whole share starts over, and from then on hits its own results: at
// the benchmark's scale the clients' share lasts about 25 seconds.
func (g *generator) tailTerm() string {
	pos := g.tailStart + g.tailStride*(g.tailSent%g.tailCount)
	g.tailSent++
	return g.v.Tail[g.tail[pos%len(g.tail)]]
}

// fresh returns a query of n distinct head terms that no lane has sent
// or will send again. When a lane runs out of n-term sets it moves on
// to n+1.
func (g *generator) fresh(n int) string {
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%256 == 0 {
			n++
		}
		idx := make([]int, 0, n)
		for len(idx) < n {
			c := g.rng.Intn(len(g.v.Head))
			dup := false
			for _, x := range idx {
				dup = dup || x == c
			}
			if !dup {
				idx = append(idx, c)
			}
		}
		terms := make([]string, n)
		for i, x := range idx {
			terms[i] = g.v.Head[x]
		}
		canon := append([]string(nil), terms...)
		sort.Strings(canon)
		key := strings.Join(canon, " ")
		h := fnv.New32a()
		h.Write([]byte(key))
		if int(h.Sum32()%uint32(g.lanes)) != g.lane {
			continue
		}
		if _, seen := g.used[key]; seen {
			continue
		}
		g.used[key] = struct{}{}
		return strings.Join(terms, " ")
	}
}

func (g *generator) next() cycle {
	switch g.wl {
	case wlHotZipf:
		return cycle{{Kind: opQuery, Q: g.v.Head[g.hot.sample(g.rng)], K: 10}}

	case wlColdUniform:
		c := make(cycle, 0, 4)
		for i := 0; i < 3; i++ {
			s := step{Kind: opQuery, Q: g.fresh(2 + g.rng.Intn(2)), K: 10}
			if g.rng.Intn(3) == 0 {
				s.Mode = "hub"
			}
			c = append(c, s)
		}
		c = append(c, step{Kind: opQuery, Q: g.tailTerm(), K: 10})
		g.rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		return c

	case wlSessionFeedback:
		t := g.v.Head[g.hot.sample(g.rng)]
		return cycle{
			{Kind: opQuery, Q: t, K: 10},
			{Kind: opReformulate, Q: t, K: 10},
			{Kind: opRequery, Q: t, K: 10},
			{Kind: opExplain, Q: t},
			{Kind: opAudit, Q: t},
		}

	case wlFleetMix:
		c := make(cycle, 0, fleetSingles+2)
		for i := 0; i < fleetSingles; i++ {
			c = append(c, step{Kind: opQuery, Q: g.v.Head[g.fleet.sample(g.rng)], K: 10})
		}
		b := step{Kind: opBatch}
		for i := 0; i < batchHot; i++ {
			it := batchItem{Q: g.v.Head[g.fleet.sample(g.rng)]}
			b.Batch = append(b.Batch, it)
			if g.alt != nil {
				b.Alt = append(b.Alt, it)
			}
		}
		for i := 0; i < batchFresh; i++ {
			b.Batch = append(b.Batch, batchItem{Q: g.fresh(2)})
			if g.alt != nil {
				b.Alt = append(b.Alt, batchItem{Q: g.alt.fresh(2)})
			}
		}
		perm := g.rng.Perm(batchSize)
		shuffled := func(items []batchItem) []batchItem {
			out := make([]batchItem, len(items))
			for i := range items {
				out[i] = items[perm[i]]
			}
			return out
		}
		b.Batch, b.Alt = shuffled(b.Batch), shuffled(b.Alt)
		c = append(c, b)
		c = append(c, step{
			Kind:    opProfileQuery,
			Q:       g.v.Head[g.fleet.sample(g.rng)],
			K:       10,
			Profile: profileID(g.rng.Intn(numProfiles)),
		})
		g.rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		return c
	}
	panic("afqbench: unknown workload " + g.wl)
}

func profileID(i int) string { return fmt.Sprintf("u%d", i) }

// warmup returns the requests setup sends before anything is timed.
func warmup(wl string, seed int64, v *vocab) []step {
	var out []step
	head := func(n int) {
		for _, t := range v.Head[:min(n, len(v.Head))] {
			out = append(out, step{Kind: opQuery, Q: t, K: 10})
		}
	}
	switch wl {
	case wlHotZipf, wlFleetMix:
		head(len(v.Head))
	case wlSessionFeedback:
		head(sessionWarmHead)
	case wlColdUniform:
		perm := tailPerm(seed, v)
		for i := 0; i < coldWarm(len(perm)); i++ {
			out = append(out, step{Kind: opQuery, Q: v.Tail[perm[i]], K: 10})
		}
	}
	return out
}

// profileMixtures returns the numProfiles three-term mixtures
// fleet_mix stores during setup, drawn from the basis candidates (the
// most frequent head terms).
func profileMixtures(seed int64, v *vocab) []map[string]float64 {
	rng := rand.New(rand.NewSource(laneSeed(seed, -2)))
	pool := v.Head[:min(numProfiles, len(v.Head))]
	out := make([]map[string]float64, numProfiles)
	for i := range out {
		m := make(map[string]float64, 3)
		for len(m) < min(3, len(pool)) {
			m[pool[rng.Intn(len(pool))]] = 1 + float64(rng.Intn(3))
		}
		out[i] = m
	}
	return out
}

// requestListHash fingerprints the first n cycles of every closed-loop
// lane: equal seeds must give equal hashes and different seeds
// different ones.
func requestListHash(wl string, seed int64, clients, n int, v *vocab) string {
	h := sha256.New()
	for lane := 0; lane < clients; lane++ {
		g := newGenerator(wl, seed, lane, clients, v)
		for i := 0; i < n; i++ {
			for _, s := range g.next() {
				fmt.Fprintf(h, "%d|%s|%d|%s|%s|", s.Kind, s.Q, s.K, s.Mode, s.Profile)
				for _, it := range s.Batch {
					fmt.Fprintf(h, "%s/%s,", it.Q, it.Mode)
				}
				h.Write([]byte{'\n'})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
