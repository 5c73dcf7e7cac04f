package conformance

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// Plan-body rows: every column of a B-column group, solved the way
// core.Pinned.Solve solves one — one rank.Iterate per column, each over
// the coefficient plan of its damping (sweepPlan) — against the same
// column solved alone with no plan (sweep, the arc-struct body), over
// the ways columns can differ from each other, with one, two or three
// callers solving the group at once over one set of plans and one
// buffer pool.

// columnCase configures column j of a solve over n-node graphs. cancel,
// when non-nil, names the column whose context dies, and the row is run
// once per poll of that column's context.
type columnCase struct {
	name string
	opts func(j, n int) rank.Options
	// polls is how often the cancelled column polls its context when it
	// is never cancelled; zero for a case that cancels nothing.
	polls int
}

// lumpy is a deterministic, uneven start vector: a donated warm start.
func lumpy(j, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(3+(i+j)%11)
	}
	return rank.NormalizeDist(v)
}

var columnCases = []columnCase{
	{name: "default start", opts: func(j, n int) rank.Options { return tight }},
	{name: "donated Init", opts: func(j, n int) rank.Options {
		o := tight
		o.Init = lumpy(j, n)
		return o
	}},
	{name: "one stale-length Init", opts: func(j, n int) rank.Options {
		o := tight
		o.Init = lumpy(j, n)
		if j == 1 {
			o.Init = make([]float64, n+7)
		}
		return o
	}},
	{name: "mixed damping and thresholds", opts: func(j, n int) rank.Options {
		return rank.Options{
			Damping:   []float64{0.85, 0.5, 0.7}[j%3],
			Threshold: []float64{1e-14, 1e-6, 1e-10, 1e-3}[j%4],
			MaxIters:  4000,
		}
	}},
	{name: "MaxIters exhausted", opts: func(j, n int) rank.Options {
		o := tight
		o.MaxIters = 3 + j%3
		return o
	}},
	{name: "one column cancelled at each poll", polls: 12, opts: func(j, n int) rank.Options {
		return rank.Options{Damping: 0.85, Threshold: rank.ZeroThreshold, MaxIters: 12 + j}
	}},
}

// encode renders a kernel result as one vector: the scores, then
// everything else a column's Result says.
func encode(res rank.Result) []float64 {
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return append(append([]float64(nil), res.Scores...),
		float64(res.Iterations), flag(res.Converged), flag(res.InitDropped), flag(res.Err == context.Canceled))
}

// nJumps returns B of the world's base distributions, cycling when it
// has fewer.
func (w *world) nJumps(B int) [][]float64 {
	all := w.jumps()
	out := make([][]float64, B)
	for j := range out {
		out[j] = all[j%len(all)]
	}
	return out
}

func columnRows(w *world) []path {
	return columnRowsOver(w, func(g *graph.Graph, alpha []float64, d float64) *rank.Plan {
		return rank.NewPlan(g, alpha, d, nil)
	})
}

// columnRowsOver builds the rows with plans(g, alpha, d) as the plan the
// columns at damping d sweep.
func columnRowsOver(w *world, plans func(g *graph.Graph, alpha []float64, d float64) *rank.Plan) []path {
	var rows []path
	alpha := w.rates.Vector()
	for _, dir := range []struct {
		name string
		g    *graph.Graph
	}{{"authority", w.g}, {"hub", w.g.Reversed()}} {
		g, n := dir.g, dir.g.NumNodes()
		// One plan per damping the cases use, shared by every caller.
		byDamping := make(map[float64]*rank.Plan)
		for _, d := range []float64{tight.Damping, 0.5, 0.7} {
			byDamping[d] = plans(g, alpha, d)
		}
		for _, B := range []int{2, 3, 8, 9} {
			for _, callers := range []int{1, 2, 3} {
				for _, c := range columnCases {
					B, callers, c := B, callers, c
					jumps := w.nJumps(B)
					cancelled := B / 2
					opts := func(j, poll int) rank.Options {
						o := c.opts(j, n)
						if c.polls > 0 && j == cancelled {
							o.Ctx = &countdown{Context: context.Background(), left: poll}
						}
						return o
					}
					// solve runs the columns one after another, over their
					// plans or with none, the cancelled column's context
					// dying at its poll-th poll.
					solve := func(overPlan bool, poll int, pool *rank.BufferPool) [][]float64 {
						var out [][]float64
						for j, jump := range jumps {
							o := opts(j, poll)
							var plan *rank.Plan
							if overPlan {
								plan = byDamping[o.Normalized().Damping]
							}
							res := rank.Iterate(g, alpha, jump, o, pool, plan)
							out = append(out, encode(res))
							res.ReleaseTo(pool)
						}
						return out
					}
					// run solves them over their plans once per caller, the
					// callers at once over one pool, or with no plan once,
					// repeated per caller.
					run := func(overPlan bool, poll int) [][]float64 {
						each := make([][][]float64, callers)
						if overPlan {
							pool := rank.NewBufferPool()
							concurrently(callers, callers, func(i int) error {
								each[i] = solve(true, poll, pool)
								return nil
							})
						} else {
							alone := solve(false, poll, nil)
							for i := range each {
								each[i] = alone
							}
						}
						var out [][]float64
						for _, e := range each {
							out = append(out, e...)
						}
						return out
					}
					all := func(overPlan bool) func(*testing.T) [][]float64 {
						return func(t *testing.T) [][]float64 {
							var out [][]float64
							for poll := 0; poll <= c.polls; poll++ {
								out = append(out, run(overPlan, poll)...)
							}
							return out
						}
					}
					rows = append(rows, path{
						fmt.Sprintf("%s kernel B=%d workers=%d, %s: column ≡ alone", dir.name, B, callers, c.name),
						bitIdentical, all(true), all(false)})
				}
			}
		}
	}
	return rows
}

// TestColumnCasesBite checks the cases above do what their names say on
// the alone path, so a row cannot pass by both sides skipping the case,
// and that the rows see the plan: the kernel refuses a plan built at
// another damping, and rows over plans folded from other rates fail.
func TestColumnCasesBite(t *testing.T) {
	w := newWorld(t, 1)
	alpha, n := w.rates.Vector(), w.g.NumNodes()
	alone := func(c columnCase, j int, ctx context.Context) rank.Result {
		o := c.opts(j, n)
		o.Ctx = ctx
		return rank.Iterate(w.g, alpha, w.nJumps(j + 1)[j], o, nil, nil)
	}
	if res := alone(columnCases[2], 1, nil); !res.InitDropped || !res.Converged {
		t.Errorf("stale Init: dropped=%v converged=%v", res.InitDropped, res.Converged)
	}
	if res := alone(columnCases[4], 0, nil); res.Converged || res.Iterations != 3 {
		t.Errorf("MaxIters exhausted: converged=%v after %d iterations", res.Converged, res.Iterations)
	}
	cancel := columnCases[5]
	for poll := 0; poll <= cancel.polls; poll++ {
		res := alone(cancel, 0, &countdown{Context: context.Background(), left: poll})
		if wantErr := poll < cancel.polls; (res.Err != nil) != wantErr || res.Iterations != poll {
			t.Errorf("cancelled at poll %d: err=%v after %d iterations", poll, res.Err, res.Iterations)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("a plan at damping 0.5 was taken by a run at the rows' damping")
			}
		}()
		rank.Iterate(w.g, alpha, w.jumps()[0], tight, nil, rank.NewPlan(w.g, alpha, 0.5, nil))
	}()

	otherRates := func(g *graph.Graph, alpha []float64, d float64) *rank.Plan {
		other := append([]float64(nil), alpha...)
		for i := range other {
			other[i] *= 0.9
		}
		return rank.NewPlan(g, other, d, nil)
	}
	for _, row := range columnRowsOver(w, otherRates) {
		got, want := row.got(t), row.want(t)
		if agree(row.class, got, want) {
			t.Errorf("%s: passes over plans of other rates", row.name)
		}
	}
}

// TestPlanLifecycleUnderPublishes races batches in both directions, a
// one-column query and rates publications on one engine. A snapshot's
// coefficient plan is built at most once per direction, never by a
// one-column solve, and every answer carries the version — and the bits
// — of the state it pinned.
func TestPlanLifecycleUnderPublishes(t *testing.T) {
	w := newWorld(t, 3)
	eng, err := core.NewEngine(w.g, w.rates, core.Config{Rank: tight})
	if err != nil {
		t.Fatal(err)
	}
	type snapDir struct {
		version uint64
		mode    core.Mode
	}
	type pinned struct{} // ctx key: the version of the pin a solve runs under
	var mu sync.Mutex
	builds := make(map[snapDir]int)
	multi := make(chan struct{}) // a multi-column solve completed; read by the publisher only
	eng.SetSolveHook(func(st core.SolveStats) {
		if st.Columns > 1 {
			select {
			case multi <- struct{}{}:
			default:
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if st.PlanBuilt {
			builds[snapDir{st.Ctx.Value(pinned{}).(uint64), st.Mode}]++
			if st.Columns < 2 || st.PlanBuildDur <= 0 {
				t.Errorf("plan built by a %d-column solve in %v", st.Columns, st.PlanBuildDur)
			}
		}
	})

	ctx := context.Background()
	var queries []*ir.Query
	for _, q := range w.queries {
		if len(w.pin.BaseSet(q)) > 0 {
			queries = append(queries, q)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// solver pins, solves count queries from offset i, and checks every
	// answer against the pin — and, every few rounds, against the same
	// query solved alone under the same pin.
	solver := func(count int, m core.Mode) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			pin := eng.Pin()
			qs := make([]*ir.Query, count)
			for j := range qs {
				qs[j] = queries[(i+j)%len(queries)]
			}
			ctx := context.WithValue(ctx, pinned{}, pin.Version())
			rs, err := pin.Solve(ctx, core.SolveSpec{Queries: qs, Mode: m})
			if err != nil {
				t.Error(err)
				return
			}
			for j, r := range rs {
				if r.RatesVersion != pin.Version() || r.Generation != pin.Generation() {
					t.Errorf("answer at version %d from a pin at %d", r.RatesVersion, pin.Version())
				}
				if count > 1 && i%4 == 0 {
					one, err := pin.Solve(ctx, core.SolveSpec{Queries: qs[j : j+1], Mode: m})
					if err != nil {
						t.Error(err)
						return
					}
					for v, x := range one[0].Scores {
						if x != r.Scores[v] {
							t.Errorf("%s batch column %d differs from the query alone at node %d", m, j, v)
							break
						}
					}
				}
			}
		}
	}
	wg.Add(4)
	go solver(9, core.ModeAuthority)
	go solver(3, core.ModeAuthority)
	go solver(4, core.ModeHub)
	go solver(1, core.ModeAuthority)

	const publishes = 25
	for i := 0; i < publishes; i++ {
		rates := eng.Pin().Rates()
		for tt := 0; tt < w.g.Schema().NumTransferTypes(); tt++ {
			if r := rates.Rate(graph.TransferTypeID(tt)); r > 0 {
				_ = rates.SetRate(graph.TransferTypeID(tt), r*(0.9+0.02*float64(i%10)))
			}
		}
		rates.NormalizeOutgoing()
		if _, err := eng.TrySetRates(rates, eng.RatesVersion()); err != nil {
			t.Fatal(err)
		}
		// Let a few batches complete — some pinned to this snapshot —
		// before the next one lands.
		for n := 0; n < 3; n++ {
			<-multi
		}
	}
	close(done)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(builds) == 0 {
		t.Fatal("no plan was ever built")
	}
	for sd, n := range builds {
		if n != 1 {
			t.Errorf("version %d %s: plan built %d times", sd.version, sd.mode, n)
		}
	}
}

// agree reports whether every entry of got meets class c against want.
func agree(c class, got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for v := range got[i] {
			if !c.agrees(got[i][v], want[i][v]) {
				return false
			}
		}
	}
	return true
}
