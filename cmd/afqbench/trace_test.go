package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// client.request 1000 → server.handler 600 → {cache.query 400 →
	// core.rank 350 → {ir.baseset 50, rank.iterate 280}, server.encode
	// 100}; and a child that outran its parent.
	spans := []span{
		{ID: 1, Parent: 0, Name: "client.request", DurUS: 1000},
		{ID: 2, Parent: 1, Name: "server.handler", Class: "computed", DurUS: 600},
		{ID: 3, Parent: 2, Name: "cache.query", DurUS: 400},
		{ID: 4, Parent: 3, Name: "core.rank", DurUS: 350},
		{ID: 5, Parent: 4, Name: "ir.baseset", DurUS: 50},
		{ID: 6, Parent: 4, Name: "rank.iterate", DurUS: 280},
		{ID: 7, Parent: 2, Name: "server.encode", DurUS: 100},
		{ID: 8, Parent: 0, Name: "client.request", DurUS: 10},
		{ID: 9, Parent: 8, Name: "server.handler", Class: "result", DurUS: 30},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 400, 2: 100, 3: 50, 4: 20, 5: 50, 6: 280, 7: 100, 8: 0, 9: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	tr := &tracer{spans: spans}
	// Below the computed handler the leaves are ir.baseset 50,
	// rank.iterate 280 and server.encode 100: 430 of its 600 µs; the
	// rest is self time of handler, cache.query and core.rank. Every
	// part fits its whole.
	if leaf, over := tr.accounting("computed"); !near(leaf, 430.0/600) || over != 0 {
		t.Errorf("accounting(computed) = %v, %v, want %v, 0", leaf, over, 430.0/600)
	}
	if leaf, over := tr.accounting("nothing"); leaf != 0 || over != 0 {
		t.Errorf("accounting of no spans = %v, %v, want 0, 0", leaf, over)
	}
	// Parts measured on their own that outrun the whole are reported,
	// not clamped away: handler 100 → {cache.query 90 → core.rank 120,
	// server.encode 30}. Leaves 150; core.rank outran cache.query by 30
	// and the children the handler by 20.
	outrun := &tracer{spans: []span{
		{ID: 1, Parent: 0, Name: "server.handler", Class: "computed", DurUS: 100},
		{ID: 2, Parent: 1, Name: "cache.query", DurUS: 90},
		{ID: 3, Parent: 2, Name: "core.rank", DurUS: 120},
		{ID: 4, Parent: 1, Name: "server.encode", DurUS: 30},
	}}
	if leaf, over := outrun.accounting("computed"); !near(leaf, 1.5) || !near(over, 0.5) {
		t.Errorf("accounting of outrunning children = %v, %v, want 1.5, 0.5", leaf, over)
	}
	if got := tr.medianSelfUS("cache.query", "*"); got != 50 {
		t.Errorf("median self of cache.query = %v, want 50", got)
	}
	if got := tr.medianUS("server.handler", "result"); got != 30 {
		t.Errorf("median of result handlers = %v, want 30", got)
	}
	if got := tr.medianUS("profile.query", "*"); got != 0 {
		t.Errorf("a span that never occurred has median %v, want 0", got)
	}
}

func TestPairDiff(t *testing.T) {
	kind := func(k string) map[string]any { return map[string]any{"kind": k} }
	tr := &tracer{spans: []span{
		{ID: 1, Request: 1, Name: "client.request", DurUS: 900, Attrs: kind("query")},
		{ID: 2, Request: 1, Parent: 1, Name: "router.forward", DurUS: 400},
		{ID: 3, Request: 2, Name: "client.request", DurUS: 1000, Attrs: kind("query")},
		{ID: 4, Request: 2, Parent: 3, Name: "router.forward", DurUS: 300},
		{ID: 5, Request: 3, Name: "client.request", DurUS: 90000, Attrs: kind("batch")},
		{ID: 6, Request: 3, Parent: 5, Name: "router.forward", DurUS: 50000},
		{ID: 7, Request: 4, Name: "client.request", DurUS: 800, Attrs: kind("query")}, // no forward: not a pair
	}}
	if got := tr.pairDiffUS("query", "client.request", "router.forward"); got != 600 {
		t.Errorf("query hop = %v µs, want the median of 500 and 700", got)
	}
	if got := tr.pairDiffUS("batch", "client.request", "router.forward"); got != 40000 {
		t.Errorf("batch hop = %v µs, want 40000", got)
	}
}

func TestTracerWrite(t *testing.T) {
	tr := newTracer()
	root := tr.add(1, 0, "client.request", "result", time.Now(), 300*time.Microsecond, map[string]any{"kind": "query"})
	id := tr.timed(1, root, "server.handler", "result", func() {})
	if id != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 1 {
		t.Fatalf("child span = %+v", tr.spans[1])
	}
	path, err := tr.write(t.TempDir(), "hot_zipf", 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Seed     int64
		Spans    []span
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "hot_zipf" || doc.Seed != 9 || len(doc.Spans) != 2 || doc.Spans[0].DurUS != 300 {
		t.Errorf("span file = %+v", doc)
	}
}
