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

// Multi-column rows: every column of a B-column rank.Iterate against
// the same column solved alone, over the ways columns can differ from
// each other, with one, two or three callers running the B-column solve
// at once over the caller's plan and one buffer pool.

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
	var rows []path
	alpha := w.rates.Vector()
	for _, dir := range []struct {
		name string
		g    *graph.Graph
	}{{"authority", w.g}, {"hub", w.g.Reversed()}} {
		g, n := dir.g, dir.g.NumNodes()
		// The caller's cached plan, at the default damping: columns at
		// another damping must get their own.
		plan := rank.NewPlan(g, alpha, tight.Damping, nil)
		for _, B := range []int{2, 3, 8, 9} {
			for _, callers := range []int{1, 2, 3} {
				for _, c := range columnCases {
					B, callers, c := B, callers, c
					jumps := w.nJumps(B)
					cancelled := B / 2
					opts := func(poll int) []rank.Options {
						opts := make([]rank.Options, B)
						for j := range opts {
							opts[j] = c.opts(j, n)
						}
						if c.polls > 0 {
							opts[cancelled].Ctx = &countdown{Context: context.Background(), left: poll}
						}
						return opts
					}
					// run solves the columns together, once per caller, or
					// each alone, once per caller, the cancelled column's
					// context dying at its poll-th poll.
					run := func(together bool, poll int) [][]float64 {
						if !together {
							var alone [][]float64
							o := opts(poll)
							for j := range jumps {
								alone = append(alone, encode(rank.Iterate(g, alpha, jumps[j:j+1], o[j:j+1], nil, nil)[0]))
							}
							var out [][]float64
							for i := 0; i < callers; i++ {
								out = append(out, alone...)
							}
							return out
						}
						pool := rank.NewBufferPool()
						each := make([][][]float64, callers)
						concurrently(callers, callers, func(i int) error {
							for _, res := range rank.Iterate(g, alpha, jumps, opts(poll), pool, plan) {
								each[i] = append(each[i], encode(res))
								res.ReleaseTo(pool)
							}
							return nil
						})
						var out [][]float64
						for _, e := range each {
							out = append(out, e...)
						}
						return out
					}
					all := func(together bool) func(*testing.T) [][]float64 {
						return func(t *testing.T) [][]float64 {
							var out [][]float64
							for poll := 0; poll <= c.polls; poll++ {
								out = append(out, run(together, poll)...)
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
// the alone path, so a row cannot pass by both sides skipping the case.
func TestColumnCasesBite(t *testing.T) {
	w := newWorld(t, 1)
	alpha, n := w.rates.Vector(), w.g.NumNodes()
	alone := func(c columnCase, j int, ctx context.Context) rank.Result {
		o := c.opts(j, n)
		o.Ctx = ctx
		return rank.Iterate(w.g, alpha, w.nJumps(j + 1)[j:], []rank.Options{o}, nil, nil)[0]
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
		rates := eng.Rates()
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
