package cache

import (
	"bytes"
	"context"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// TestAttachBodyRules: only a result hit can be given a body, the first
// body wins, a body answers only the spelling it was rendered for, and
// one that could never fit a shard is refused without counting an
// eviction on every hit.
func TestAttachBodyRules(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})
	q := ir.NewQuery("olap")
	ask := func() *Answer {
		ans, err := c.QueryModePinnedCtx(context.Background(), eng.Pin(), q, 5, core.ModeAuthority)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}

	miss := ask()
	c.AttachBody(miss, q.String(), []byte("never kept"))
	hit := ask()
	if miss.Source == SourceResult || hit.Source != SourceResult || hit.Body(q.String()) != nil {
		t.Fatalf("sources %q then %q, body %q: a miss must not attach", miss.Source, hit.Source, hit.Body(q.String()))
	}

	before := c.Stats().Result
	c.AttachBody(hit, q.String(), make([]byte, c.results.Budget()/lruShards))
	if after := c.Stats().Result; ask().Body(q.String()) != nil || after.Evictions != before.Evictions || after.Bytes != before.Bytes {
		t.Errorf("a body as large as a shard was attached or counted: %+v -> %+v", before, after)
	}

	first := []byte(`{"first":true}`)
	c.AttachBody(hit, q.String(), first)
	c.AttachBody(ask(), "[another:1.00]", []byte(`{"second":true}`))
	got := ask()
	if !bytes.Equal(got.Body(q.String()), first) {
		t.Errorf("stored body = %q, want the first one attached", got.Body(q.String()))
	}
	if got.Body("[another:1.00]") != nil {
		t.Error("a body was served to a spelling it was not rendered for")
	}
	if st := c.Stats().Result; st.Entries != before.Entries || st.Bytes != before.Bytes+int64(len(first)+len(q.String())) {
		t.Errorf("attach accounted %+v -> %+v, want the same entries and %d more bytes",
			before, st, len(first)+len(q.String()))
	}
}

// TestAttachBodyStaysInsideTheBudget: bodies are accounted to the result
// LRU's own budget — attaching them evicts older entries instead of
// overrunning it — and an evicted entry's body leaves with it: the
// resident byte count is exactly the entries (and bodies) still there.
func TestAttachBodyStaysInsideTheBudget(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	// The result side gets 1/8 of MaxBytes over lruShards shards: 3 kB a
	// shard holds two ~1.3 kB entries-with-body, so 40 terms must evict.
	c := New(eng, Options{MaxBytes: 3 << 10 * lruShards * 8})
	terms := eng.Index().TermsWithDF(3)
	if len(terms) > 40 {
		terms = terms[:40]
	}
	if len(terms) <= 3*lruShards {
		t.Skip("vocabulary too small at this scale")
	}
	body := bytes.Repeat([]byte("x"), 1<<10)
	pin := eng.Pin()
	for _, term := range terms {
		q := ir.NewQuery(term)
		query(c, q, 5)
		c.AttachBody(query(c, q, 5), q.String(), body)
		if c.results.Bytes() > c.results.Budget() {
			t.Fatalf("after %q: %d resident bytes over a %d budget", term, c.results.Bytes(), c.results.Budget())
		}
	}
	if c.Stats().Result.Evictions == 0 {
		t.Fatal("no result evictions: the bodies were not charged to the budget")
	}

	var resident, evicted int64
	for _, term := range terms {
		q := ir.NewQuery(term)
		key := resultKey(keyOf(pin), Scope{}, core.ModeAuthority, 5, q)
		e, ok := c.results.Get(key)
		if !ok {
			evicted++
			continue
		}
		cr := e.(*cachedResult)
		if !bytes.Equal(cr.body, body) || cr.bodyFor != q.String() {
			t.Errorf("%q is resident without the body attached to it", term)
		}
		resident += resultEntrySize(key, len(cr.items)) + int64(len(cr.body)+len(cr.bodyFor))
	}
	if evicted == 0 || resident != c.results.Bytes() {
		t.Errorf("%d evicted; resident entries account for %d bytes, the LRU reports %d", evicted, resident, c.results.Bytes())
	}
	// An evicted entry comes back as a plain miss: no body outlived it.
	for _, term := range terms {
		q := ir.NewQuery(term)
		if _, ok := c.results.Get(resultKey(keyOf(pin), Scope{}, core.ModeAuthority, 5, q)); ok {
			continue
		}
		if ans := query(c, q, 5); ans.Source == SourceResult || ans.Body(q.String()) != nil {
			t.Errorf("evicted %q answered source=%q with a %d-byte body", term, ans.Source, len(ans.Body(q.String())))
		}
		break
	}
}
