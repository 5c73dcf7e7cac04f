package core

import (
	"context"
	"math"
	"testing"

	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeAuthority, true},
		{"authority", ModeAuthority, true},
		{"hub", ModeHub, true},
		{"combined", "", false},
		{"Hub", "", false},
		{"cheirank", "", false},
		{"both", "", false},
	} {
		got, err := ParseMode(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseMode(%q) = (%q, %v), want (%q, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestHubBitIdenticalToPreReversedAuthority is the golden contract of
// hub mode: solving mode=hub on an engine over g must produce the exact
// bit pattern that mode=authority produces on an engine built over
// g.Reversed(). Both paths share the frozen arc arrays, so any drift
// means the hub path stopped reusing them verbatim.
func TestHubBitIdenticalToPreReversedAuthority(t *testing.T) {
	f := newFixture(t)
	eng := f.newEngine(t)

	pre, err := NewEngine(f.g.Reversed(), f.rates, Config{
		Rank: rank.Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, raw := range []string{"olap", "cube agrawal", "multidimensional", "icde"} {
		q := ir.ParseQuery(raw)
		hub, err := solveMode(eng.Pin(), q, ModeHub)
		if err != nil {
			t.Fatal(err)
		}
		auth, err := solveMode(pre.Pin(), ir.ParseQuery(raw), ModeAuthority)
		if err != nil {
			t.Fatal(err)
		}
		if len(hub.Scores) != len(auth.Scores) {
			t.Fatalf("%q: score lengths differ", raw)
		}
		for i := range hub.Scores {
			if math.Float64bits(hub.Scores[i]) != math.Float64bits(auth.Scores[i]) {
				t.Fatalf("%q node %d: hub %x != pre-reversed authority %x",
					raw, i, math.Float64bits(hub.Scores[i]), math.Float64bits(auth.Scores[i]))
			}
		}
		if hub.Iterations != auth.Iterations {
			t.Errorf("%q: iterations %d vs %d", raw, hub.Iterations, auth.Iterations)
		}
	}
}

// TestHubBlockedMatchesSingle pins the blocked hub panel to the single
// hub solve, mirroring the authority-side contract.
func TestHubBlockedMatchesSingle(t *testing.T) {
	f := newFixture(t)
	eng := f.newEngine(t)
	pin := eng.Pin()

	raws := []string{"olap", "cube", "agrawal", "databases icde"}
	qs := make([]*ir.Query, len(raws))
	for i, r := range raws {
		qs[i] = ir.ParseQuery(r)
	}
	many, err := pin.Solve(context.Background(), SolveSpec{Queries: qs, Mode: ModeHub})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range raws {
		single, err := solveMode(pin, ir.ParseQuery(raw), ModeHub)
		if err != nil {
			t.Fatal(err)
		}
		for v := range single.Scores {
			if math.Float64bits(many[i].Scores[v]) != math.Float64bits(single.Scores[v]) {
				t.Fatalf("%q node %d: blocked hub differs from single", raw, v)
			}
		}
	}
}

// TestRankModeDispatch checks the mode dispatcher reaches each path and
// rejects unknown modes.
func TestRankModeDispatch(t *testing.T) {
	f := newFixture(t)
	pin := f.newEngine(t).Pin()
	q := ir.ParseQuery("olap")

	authority, err := solveMode(pin, q, ModeAuthority)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := solveMode(pin, ir.ParseQuery("olap"), ModeAuthority)
	if err != nil {
		t.Fatal(err)
	}
	for v := range direct.Scores {
		if math.Float64bits(authority.Scores[v]) != math.Float64bits(direct.Scores[v]) {
			t.Fatal("ModeAuthority dispatch does not match RankCtx")
		}
	}
	if _, err := solveMode(pin, q, Mode("bogus")); err == nil {
		t.Error("unknown mode must be rejected")
	}

	// Hub rankings order differently from authority on the fixture: v4
	// (cites three nodes, in no base set's shadow) is a strong hub.
	hub, err := solveMode(pin, ir.ParseQuery("olap"), ModeHub)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	ha, aa := hub.TopK(7), direct.TopK(7)
	for i := range ha {
		if ha[i].Node != aa[i].Node {
			same = false
			break
		}
	}
	if same {
		t.Error("hub and authority rankings are identical on the fixture; the hub path is suspicious")
	}
}

// TestHubExplainFollowsReversedArcs: explaining a hub ranking walks the
// reversed direction, so arcs in the subgraph run opposite to the
// authority explanation's.
func TestHubExplainFollowsReversedArcs(t *testing.T) {
	f := newFixture(t)
	pin := f.newEngine(t).Pin()
	q := ir.ParseQuery("olap")

	hub, err := solveMode(pin, q, ModeHub)
	if err != nil {
		t.Fatal(err)
	}
	// v4 cites v7/v5 — in the hub direction authority flows v7->v4.
	sg, err := pin.ExplainModeCtx(context.Background(), ModeHub, hub, f.ids["v4"], DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	if sg.ExplainedScore() <= 0 {
		t.Fatalf("hub explanation of v4 carries no flow; score %v", sg.ExplainedScore())
	}
	for _, a := range sg.FlowArcs() {
		if a.From == f.ids["v4"] && a.To == f.ids["v7"] {
			t.Error("subgraph contains the authority-direction arc v4->v7; hub explanations must use reversed arcs")
		}
	}

	// A mode the contract does not know is not explained as either.
	if _, err := pin.ExplainModeCtx(context.Background(), Mode("combined"), hub, f.ids["v4"], DefaultExplain()); err == nil {
		t.Error("an unknown mode must not be explained")
	}
}
