package rank

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"authorityflow/internal/graph"
)

// tied is one candidate of the tie tests: a primary key drawn from a
// few values (NaN among them) and tie-break fields that each order
// reads its own way.
type tied struct {
	key     float64
	id      int32
	a, b, c int32
	s       string
	seq     []int32
}

// tiedOrders are the orders of every Top caller, each a strict total
// order over tiedItems: key descending (NaN last), then the caller's
// tie-breaks on fields of the same kinds as the caller's.
var tiedOrders = []struct {
	name string
	cmp  func(x, y tied) int
}{
	// Explain arcs (CompareFlow) and audit arcs: (From, To, Type).
	{"arcs", func(x, y tied) int {
		return cmp.Or(cmp.Compare(y.key, x.key), cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b), cmp.Compare(x.c, y.c))
	}},
	// Audit nodes (Node) and cluster neighbours (To).
	{"nodes", func(x, y tied) int {
		return cmp.Or(cmp.Compare(y.key, x.key), cmp.Compare(x.id, y.id))
	}},
	// Expansion terms, the profile panel and the mixture cap: the term.
	{"terms", func(x, y tied) int {
		return cmp.Or(cmp.Compare(y.key, x.key), cmp.Compare(x.s, y.s))
	}},
	// Paths: length, node sequence, then the arcs.
	{"paths", func(x, y tied) int {
		return cmp.Or(cmp.Compare(y.key, x.key), cmp.Compare(len(x.seq), len(y.seq)),
			slices.Compare(x.seq, y.seq), cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	}},
}

// tiedItems returns n candidates, distinct under every order in
// tiedOrders, whose keys tie often and are NaN now and then.
func tiedItems(rng *rand.Rand, n int) []tied {
	keys := []float64{0.5, 1, 2, 2, math.NaN()}
	out := make([]tied, n)
	for i, p := range rng.Perm(n) {
		seq := make([]int32, 1+p%2)
		seq[0] = int32(p / 2 % 2)
		out[i] = tied{key: keys[rng.Intn(len(keys))], id: int32(p), a: int32(p / 6), b: int32(p / 2 % 3), c: int32(p % 2), s: strconv.Itoa(p), seq: seq}
	}
	return out
}

func tiedKey(x tied) float64 { return x.key }

// sortPrefix is what a selection of k must return: the k-long prefix of
// a full sort, nil when it is empty.
func sortPrefix[T any](items []T, k int, order func(a, b T) int) []T {
	all := slices.Clone(items)
	slices.SortFunc(all, order)
	if k = min(k, len(all)); k == 0 {
		return nil
	}
	return all[:k]
}

// selectAll runs one selection of k over items through top, which is
// Reset first: the second selection of a reused Top starts clean.
func selectAll[T any](top *Top[T], items []T, key func(T) float64) []T {
	top.Reset()
	for _, x := range items {
		if top.Admits(key(x)) {
			top.Offer(x)
		}
	}
	return slices.Clone(top.Sorted())
}

func equalTied(x, y []tied) bool {
	return slices.EqualFunc(x, y, func(a, b tied) bool {
		return math.Float64bits(a.key) == math.Float64bits(b.key) && a.id == b.id && a.a == b.a && a.b == b.b && a.c == b.c && a.s == b.s && slices.Equal(a.seq, b.seq)
	})
}

// TestTopBudgetTies: under ties on the primary key and NaN keys, a Top
// of k returns the k-long prefix of the full sort, under every caller's
// order, for every k from 0 to one past the candidates, and again after
// a Reset in the same buffer. The results order runs through TopK
// itself.
func TestTopBudgetTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		items := tiedItems(rng, 1+rng.Intn(80))
		for _, o := range tiedOrders {
			for k := 0; k <= len(items)+1; k++ {
				top := NewTop(k, tiedKey, o.cmp)
				want := sortPrefix(items, k, o.cmp)
				if got := selectAll(top, items, tiedKey); !equalTied(got, want) {
					t.Fatalf("trial %d %s k=%d: the selection is not the prefix of the full sort:\n%v\n%v", trial, o.name, k, got, want)
				}
				reversed := slices.Clone(items)
				slices.Reverse(reversed)
				if got := selectAll(top, reversed, tiedKey); !equalTied(got, want) {
					t.Fatalf("trial %d %s k=%d: the reused selection over the reversed candidates differs", trial, o.name, k)
				}
			}
		}
		scores := make([]float64, len(items))
		ranked := make([]Ranked, len(items))
		for i, x := range items {
			scores[i], ranked[i] = x.key, Ranked{Node: graph.NodeID(i), Score: x.key}
		}
		for k := 0; k <= len(items)+1; k++ {
			got, want := TopK(scores, k), sortPrefix(ranked, k, compareRanked)
			if !slices.EqualFunc(got, want, func(a, b Ranked) bool {
				return a.Node == b.Node && math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) {
				t.Fatalf("trial %d k=%d: TopK is not the prefix of the full sort:\n%v\n%v", trial, k, got, want)
			}
		}
	}
}

// TestTopBudgetTiesBite: the same selection with an Admits that rejects
// a key equal to the bar drops items that tie with the bar and beat it
// on the rest of the order, and the property test's candidates catch it
// under every order.
func TestTopBudgetTiesBite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	caught := make([]bool, len(tiedOrders))
	for trial := 0; trial < 20; trial++ {
		items := tiedItems(rng, 1+rng.Intn(80))
		for i, o := range tiedOrders {
			for k := 1; k <= len(items)+1; k++ {
				got := selectStrict(items, k, tiedKey, o.cmp)
				caught[i] = caught[i] || !equalTied(got, sortPrefix(items, k, o.cmp))
			}
		}
	}
	for i, o := range tiedOrders {
		if !caught[i] {
			t.Errorf("a selection that rejects equal keys passed under the %s order", o.name)
		}
	}
}

// selectStrict is a Top's selection with the tie rule broken: an offer
// whose key equals the bar's is dropped without reaching cmp.
func selectStrict[T any](items []T, k int, key func(T) float64, order func(a, b T) int) []T {
	top := NewTop(k, key, order)
	for _, x := range items {
		if top.Admits(key(x)) && key(x) != top.Bar() {
			top.Offer(x)
		}
	}
	return top.Sorted()
}
