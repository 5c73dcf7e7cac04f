package cache

import (
	"context"
	"fmt"
	"math"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

var modeTestOpts = rank.Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}

// TestModeKeysDisjoint: the two modes' answers for one query, and the
// global and personalized answers of one query, live under distinct
// keys and never alias each other's cache entries.
func TestModeKeysDisjoint(t *testing.T) {
	sk := stateKey{gen: 1, rk: 0xabc, ver: 7}
	q := ir.NewQuery("olap")
	keys := map[string]string{}
	for _, sc := range []Scope{{}, {ID: "u1", Rev: 1}, {ID: "u1", Rev: 2}, {ID: "u2", Rev: 1}} {
		for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
			k := resultKey(sk, sc, m, 10, q)
			who := fmt.Sprintf("scope %+v mode %s", sc, m)
			if prev, dup := keys[k]; dup {
				t.Fatalf("%s and %s share result key %q", prev, who, k)
			}
			keys[k] = who
		}
	}
	if resultKey(sk, Scope{}, "", 10, q) != resultKey(sk, Scope{}, core.ModeAuthority, 10, q) {
		t.Error("the empty mode must spell authority")
	}
	if got, want := resultKey(sk, Scope{}, core.ModeAuthority, 10, q), "r\x00authority\x001\x007\x0010\x00"+q.Canonical(); got != want {
		t.Errorf("the global key is %q, want %q", got, want)
	}
	// A result is keyed by the rates version, not the fingerprint: a
	// value-identical publish moves the one and keeps the other.
	republished := stateKey{gen: sk.gen, rk: sk.rk, ver: sk.ver + 1}
	if resultKey(sk, Scope{}, core.ModeAuthority, 10, q) == resultKey(republished, Scope{}, core.ModeAuthority, 10, q) {
		t.Error("a new rates version kept the result key")
	}
	if termKey(sk, core.ModeAuthority, "olap") != termKey(republished, core.ModeAuthority, "olap") {
		t.Error("a value-identical publish moved the term key")
	}
	if slotKey(sk.gen, core.ModeAuthority, "olap") == slotKey(sk.gen, core.ModeHub, "olap") {
		t.Error("authority and hub term vectors share a slot")
	}
	if termKey(sk, core.ModeAuthority, "olap") == termKey(sk, core.ModeHub, "olap") {
		t.Error("authority and hub term columns share a flight key")
	}
}

// TestQueryModeCachedBitIdentical: for every mode, a cache hit serves
// exactly the bytes the original miss computed, and the hub answer
// matches the engine's own hub solve bit for bit.
func TestQueryModeCachedBitIdentical(t *testing.T) {
	_, eng := testEngine(t, modeTestOpts)
	c := New(eng, Options{})
	pin := eng.Pin()
	ctx := context.Background()
	q := func() *ir.Query { return ir.NewQuery("mining") }

	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		miss, err := c.QueryModePinnedCtx(ctx, pin, q(), 10, m)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := c.QueryModePinnedCtx(ctx, pin, q(), 10, m)
		if err != nil {
			t.Fatal(err)
		}
		if hit.Source != SourceResult {
			t.Errorf("%s: second query source = %q, want %q", m, hit.Source, SourceResult)
		}
		if len(hit.Results) != len(miss.Results) {
			t.Fatalf("%s: hit/miss result lengths differ", m)
		}
		for i := range hit.Results {
			if hit.Results[i].Node != miss.Results[i].Node ||
				math.Float64bits(hit.Results[i].Score) != math.Float64bits(miss.Results[i].Score) {
				t.Fatalf("%s: cached answer drifted at rank %d", m, i)
			}
		}
	}

	// The cached hub answer equals a direct hub solve.
	ref := solveOne(pin, core.SolveSpec{Queries: []*ir.Query{q()}, Mode: core.ModeHub})
	defer eng.Release(ref)
	top := ref.TopK(10)
	hub, err := c.QueryModePinnedCtx(ctx, pin, q(), 10, core.ModeHub)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range top {
		if hub.Results[i].Node != r.Node || math.Float64bits(hub.Results[i].Score) != math.Float64bits(r.Score) {
			t.Fatalf("cached hub rank %d differs from direct hub solve", i)
		}
	}

	// A mode that is no direction is an error, not a third cache line.
	before := c.Stats()
	if a, err := c.QueryModePinnedCtx(ctx, pin, q(), 10, "combined"); err == nil {
		t.Fatalf("mode combined answered from %q, want an error", a.Source)
	}
	if after := c.Stats(); after.Computes != before.Computes || after.Result.Entries != before.Result.Entries || after.Vector.Entries != before.Vector.Entries {
		t.Errorf("a rejected mode touched the cache: %+v -> %+v", before, after)
	}
}

// TestBatchModesScatter: a mixed-mode batch answers every item at its
// original index with the same answer the single-query path gives.
func TestBatchModesScatter(t *testing.T) {
	_, eng := testEngine(t, modeTestOpts)
	c := New(eng, Options{})
	pin := eng.Pin()
	ctx := context.Background()

	qs := []*ir.Query{ir.NewQuery("mining"), ir.NewQuery("mining"), ir.NewQuery("olap"), ir.NewQuery("olap")}
	ks := []int{5, 5, 5, 5}
	modes := []core.Mode{core.ModeAuthority, core.ModeHub, core.ModeHub, core.ModeAuthority}
	answers, err := c.QueryBatchModePinnedCtx(ctx, pin, qs, ks, modes)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range modes {
		if answers[i] == nil {
			t.Fatalf("item %d: nil answer", i)
		}
		want, err := c.QueryModePinnedCtx(ctx, pin, qs[i], ks[i], m)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Results {
			if answers[i].Results[j].Node != want.Results[j].Node ||
				math.Float64bits(answers[i].Results[j].Score) != math.Float64bits(want.Results[j].Score) {
				t.Fatalf("item %d (%s): batch answer differs from single-query answer", i, m)
			}
		}
	}
}
