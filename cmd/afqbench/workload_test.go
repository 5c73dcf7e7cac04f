package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// testVocab is a vocabulary of the benchmark corpus's shape: 208 head
// terms with falling df and 1187 tail terms.
func testVocab() *vocab {
	df := make(map[string]int)
	var terms []string
	for i := 0; i < 208; i++ {
		t := fmt.Sprintf("head%03d", i)
		df[t] = 1000 - i
		terms = append(terms, t)
	}
	for i := 0; i < 1187; i++ {
		t := fmt.Sprintf("tail%04d", i)
		df[t] = 2 + i%8
		terms = append(terms, t)
	}
	terms = append(terms, "hapax")
	df["hapax"] = 1
	return newVocab(terms, func(t string) int { return df[t] })
}

func TestVocabClasses(t *testing.T) {
	v := testVocab()
	if len(v.Head) != 208 || len(v.Tail) != 1187 {
		t.Fatalf("classes hold %d head and %d tail terms, want 208 and 1187", len(v.Head), len(v.Tail))
	}
	if v.Head[0] != "head000" || v.Head[207] != "head207" {
		t.Errorf("head is not ordered by falling df: %s … %s", v.Head[0], v.Head[207])
	}
	if !sort.StringsAreSorted(v.Tail) {
		t.Error("tail is not sorted")
	}
}

func TestRequestListHash(t *testing.T) {
	v := testVocab()
	for _, wl := range workloadNames {
		a := requestListHash(wl, 1, 2, 200, v)
		if b := requestListHash(wl, 1, 2, 200, v); a != b {
			t.Errorf("%s: the same seed gave hashes %s and %s", wl, a, b)
		}
		if b := requestListHash(wl, 2, 2, 200, v); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same hash", wl)
		}
	}
}

// No two lanes of a run, and no lane twice, may send the same
// never-repeated query, whatever order its terms come in.
func TestFreshQueriesNeverRepeat(t *testing.T) {
	v := testVocab()
	const clients = 2
	for _, wl := range []string{wlColdUniform, wlFleetMix} {
		seen := make(map[string]int)
		for lane := 0; lane < numLanes(clients)-1; lane++ { // the last lane only feeds the batch twins
			g := newGenerator(wl, 7, lane, clients, v)
			for i := 0; i < 300; i++ {
				for _, st := range g.next() {
					var qs []string
					if st.Kind == opBatch {
						for _, it := range append(st.Batch, st.Alt...) {
							qs = append(qs, it.Q)
						}
					} else {
						qs = []string{st.Q}
					}
					for _, q := range qs {
						terms := strings.Fields(q)
						if len(terms) < 2 {
							continue
						}
						sort.Strings(terms)
						key := strings.Join(terms, " ")
						if prev, dup := seen[key]; dup {
							t.Fatalf("%s: %q sent by lane %d and again by lane %d", wl, key, prev, lane)
						}
						seen[key] = lane
					}
				}
			}
		}
		if len(seen) == 0 {
			t.Errorf("%s generated no multi-term query", wl)
		}
	}
}

func TestColdUniformShape(t *testing.T) {
	v := testVocab()
	warm := make(map[string]bool)
	for _, st := range warmup(wlColdUniform, 3, v) {
		warm[st.Q] = true
	}
	if len(warm) != coldWarmTail {
		t.Fatalf("warm-up sends %d distinct tail terms, want %d", len(warm), coldWarmTail)
	}
	tail := make(map[string]bool)
	multi, hub, single := 0, 0, 0
	for lane := 0; lane < 2; lane++ {
		g := newGenerator(wlColdUniform, 3, lane, 2, v)
		for i := 0; i < 250; i++ {
			cy := g.next()
			if len(cy) != 4 {
				t.Fatalf("cycle of %d requests, want 4", len(cy))
			}
			for _, st := range cy {
				switch n := len(strings.Fields(st.Q)); {
				case n == 1:
					single++
					if warm[st.Q] || tail[st.Q] {
						t.Fatalf("tail term %q repeats", st.Q)
					}
					tail[st.Q] = true
				case n == 2 || n == 3:
					multi++
					if st.Mode == "hub" {
						hub++
					}
				default:
					t.Fatalf("query %q has %d terms", st.Q, n)
				}
			}
		}
	}
	if multi != 3*single {
		t.Errorf("%d multi-term and %d single-term queries, want 3:1", multi, single)
	}
	if share := float64(hub) / float64(multi); share < 0.25 || share > 0.42 {
		t.Errorf("hub share of the multi-term queries = %.3f, want about a third", share)
	}
}

func TestFleetMixShape(t *testing.T) {
	v := testVocab()
	g := newGenerator(wlFleetMix, 5, laneReplay(2), 2, v)
	for i := 0; i < 50; i++ {
		cy := g.next()
		counts := make(map[opKind]int)
		for _, st := range cy {
			counts[st.Kind]++
			if st.Kind == opBatch {
				if len(st.Batch) != batchSize || len(st.Alt) != batchSize {
					t.Fatalf("batch of %d with a twin of %d, want %d", len(st.Batch), len(st.Alt), batchSize)
				}
				fresh := 0
				for j, it := range st.Batch {
					if len(strings.Fields(it.Q)) > 1 {
						fresh++
						if st.Alt[j].Q == it.Q {
							t.Fatalf("twin repeats the never-repeated item %q", it.Q)
						}
					} else if st.Alt[j].Q != it.Q {
						t.Fatalf("twin changes the hot item %q to %q", it.Q, st.Alt[j].Q)
					}
				}
				if fresh != batchFresh {
					t.Fatalf("%d never-repeated items in a batch, want %d", fresh, batchFresh)
				}
			}
		}
		if counts[opQuery] != fleetSingles || counts[opBatch] != 1 || counts[opProfileQuery] != 1 {
			t.Fatalf("cycle mix %v, want %d singles, 1 batch, 1 profile query", counts, fleetSingles)
		}
	}
	if newGenerator(wlFleetMix, 5, 0, 2, v).alt != nil {
		t.Error("a closed-loop lane carries batch twins it never sends")
	}
}

// A block of stratified draws covers the distribution: the share of
// rank 0 over whole blocks is its Zipf probability to within one draw
// per block, where independent draws would wander far more.
func TestStratifiedZipf(t *testing.T) {
	const n, blocks = 208, 400
	z := newZipf(n, hotZipfS, zipfStrata)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < blocks*zipfStrata; i++ {
		counts[z.sample(rng)]++
	}
	p0 := z.cdf[0]
	got := float64(counts[0]) / float64(blocks*zipfStrata)
	if got < p0-1.0/zipfStrata || got > p0+1.0/zipfStrata {
		t.Errorf("rank 0 drawn with frequency %.4f, want %.4f ± %.4f", got, p0, 1.0/zipfStrata)
	}
	for i := 1; i < 8; i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("rank %d drawn %d times, more than rank %d (%d)", i, counts[i], i-1, counts[i-1])
		}
	}
	last := 0
	for _, c := range counts[n/2:] {
		last += c
	}
	if last == 0 {
		t.Error("the rarer half of the ranks is never drawn")
	}
}

func TestProfileMixtures(t *testing.T) {
	v := testVocab()
	mixes := profileMixtures(1, v)
	if len(mixes) != numProfiles {
		t.Fatalf("%d mixtures, want %d", len(mixes), numProfiles)
	}
	pool := make(map[string]bool)
	for _, term := range v.Head[:numProfiles] {
		pool[term] = true
	}
	for i, m := range mixes {
		if len(m) != 3 {
			t.Errorf("mixture %d has %d terms, want 3", i, len(m))
		}
		for term, w := range m {
			if !pool[term] || w <= 0 {
				t.Errorf("mixture %d: term %q weight %v is outside the basis candidates", i, term, w)
			}
		}
	}
}
