package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// This file holds the engine's published state to linearizability
// (Wing & Gong, "Testing and Verifying Concurrent Objects", JPDC 17(1),
// 1993): concurrent histories of Pin, SetRates, TrySetRates, FeedbackCtx
// and SwapCorpus are recorded under -race and each must be explained by
// some order of its operations, consistent with real time, in which a
// sequential model of (generation, version, rates key) gives every
// operation the result it returned.

// modelState is the sequential model's state: what a pin observes.
type modelState struct{ gen, version, key uint64 }

type opKind int

const (
	opPin opKind = iota
	opSet
	opTry
	opFeedback
	opSwap
)

// histOp is one completed call of a history. arg is the condition the
// call published under (TrySetRates' and the round's version,
// SwapCorpus' generation, 0 for any) and key the rates it would
// publish; out is the state it returned (TrySetRates returns only the
// version); call and ret are its invocation and response on one clock.
type histOp struct {
	kind      opKind
	arg, key  uint64
	out       modelState
	conflict  bool
	call, ret int64
}

// matches reports whether o returned state s.
func (o *histOp) matches(s modelState) bool {
	if o.kind == opTry {
		return o.out.version == s.version
	}
	return o.out == s
}

// step applies o to s in the sequential model: every publish sets the
// version to s's + 1, a swap also the generation, and a conditional
// publish whose condition (0 for none) fails publishes nothing and
// returns s.
func step(s modelState, o *histOp) (modelState, bool) {
	switch o.kind {
	case opPin:
		return s, o.out == s
	case opSet:
		return modelState{s.gen, s.version + 1, o.key}, !o.conflict
	}
	next, ok := modelState{s.gen, s.version + 1, o.key}, o.arg == 0 || s.version == o.arg
	if o.kind == opSwap {
		next.gen, ok = s.gen+1, o.arg == 0 || s.gen == o.arg
	}
	if !ok {
		return s, o.conflict && o.matches(s)
	}
	return next, !o.conflict && o.matches(next)
}

// linearizable is the Wing–Gong search with memoized (done set, state)
// pairs: it tries, as the next linearization point, each pending
// operation invoked before every pending operation's response, and
// backtracks when the model disagrees with what it returned.
func linearizable(ops []histOp, init modelState) bool {
	type node struct {
		done uint64
		s    modelState
	}
	all := uint64(1)<<len(ops) - 1
	seen := map[node]bool{}
	var search func(done uint64, s modelState) bool
	search = func(done uint64, s modelState) bool {
		if done == all {
			return true
		}
		if seen[node{done, s}] {
			return false
		}
		seen[node{done, s}] = true
		firstRet := int64(1 << 62)
		for i := range ops {
			if done&(1<<i) == 0 && ops[i].ret < firstRet {
				firstRet = ops[i].ret
			}
		}
		for i := range ops {
			if done&(1<<i) != 0 || ops[i].call > firstRet {
				continue
			}
			if next, ok := step(s, &ops[i]); ok && search(done|1<<i, next) {
				return true
			}
		}
		return false
	}
	return search(0, init)
}

// recordHistory runs four goroutines of eight calls each against one
// engine over two corpora of the same graph: a swapper alternating
// swaps at its last pin's generation and at 0, a SetRates writer, a
// TrySetRates writer and a feedback round, each pinning between its
// writes. It returns the history and the engine's initial state.
func recordHistory(t *testing.T, f *fixture) ([]histOp, modelState) {
	e := f.newEngine(t)
	corpora := []*Corpus{e.Pin().Corpus(), NewCorpus(f.g, Config{})}
	init := e.Pin()
	var clock, nextRates atomic.Int64
	ratesOf := func() (*graph.Rates, uint64) {
		r := f.rates.Clone()
		r.Set(f.edges["by"], graph.Backward, 0.01*float64(1+nextRates.Add(1)))
		return r, graph.RateVectorKey(r.Vector())
	}
	stateOf := func(p *Pinned) modelState { return modelState{p.Generation(), p.Version(), p.RatesKey()} }
	q, ids := ir.NewQuery("olap"), []graph.NodeID{f.ids["v7"]}

	logs := make([][]histOp, 4)
	var wg sync.WaitGroup
	for w := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last *Pinned
			for i := 0; i < 8; i++ {
				o := histOp{kind: opPin}
				var err error
				if i%2 == 1 {
					o.kind = []opKind{opSwap, opSet, opTry, opFeedback}[w]
				}
				var res *RankResult
				if o.kind == opFeedback {
					res = rankPinned(last, q) // the round's input, computed before its call
				}
				r, key := ratesOf()
				o.call = clock.Add(1)
				switch o.kind {
				case opPin:
					last = e.Pin()
					o.out = stateOf(last)
				case opSet:
					o.key, err = key, e.SetRates(r)
				case opTry:
					o.arg, o.key = last.Version(), key
					o.out.version, err = e.TrySetRates(r, o.arg)
				case opFeedback:
					var round *Round
					round, err = last.FeedbackCtx(context.Background(), q, res, ids, nil, StructureOnly())
					o.arg = last.Version()
					if round != nil {
						o.key, o.out = graph.RateVectorKey(round.Reformulation.Rates.Vector()), stateOf(round.Pin)
					}
				case opSwap:
					o.arg, o.key = []uint64{last.Generation(), 0}[i/2%2], key
					var pin *Pinned
					pin, err = e.SwapCorpus(corpora[i/2%2], r, o.arg)
					o.out = stateOf(pin)
				}
				o.ret = clock.Add(1)
				o.conflict = errors.Is(err, ErrRatesConflict) || errors.Is(err, ErrGenerationConflict)
				if err != nil && !o.conflict {
					t.Errorf("op %d of goroutine %d: %v", i, w, err)
				}
				logs[w] = append(logs[w], o)
			}
		}()
	}
	wg.Wait()
	var ops []histOp
	for _, l := range logs {
		ops = append(ops, l...)
	}
	return ops, stateOf(init)
}

// TestEngineHistoriesAreLinearizable records concurrent histories of
// the engine's publishes and pins and checks each against the
// sequential model.
func TestEngineHistoriesAreLinearizable(t *testing.T) {
	f := newFixture(t)
	conflicts := 0
	for h := 0; h < 60; h++ {
		ops, init := recordHistory(t, f)
		if !linearizable(ops, init) {
			t.Fatalf("history %d is not linearizable from %+v:\n%+v", h, init, ops)
		}
		for _, o := range ops {
			if o.conflict {
				conflicts++
			}
		}
	}
	t.Logf("60 histories of 32 operations, %d conflicts", conflicts)
}

// TestHistoryCheckerRejects feeds the checker two histories that no
// order explains: a swap at the current generation that reports a
// conflict while only a rates publish overlapped it, and a pin that
// misses a publish that returned before the pin was called.
func TestHistoryCheckerRejects(t *testing.T) {
	init := modelState{1, 1, 100}
	for name, ops := range map[string][]histOp{
		"swap lost to a publish": {
			{kind: opSet, key: 200, call: 1, ret: 3},
			{kind: opSwap, arg: 1, key: 300, out: modelState{1, 2, 200}, conflict: true, call: 2, ret: 4},
		},
		"stale pin": {
			{kind: opSet, key: 200, call: 1, ret: 2},
			{kind: opPin, out: modelState{1, 1, 100}, call: 3, ret: 4},
		},
	} {
		if linearizable(ops, init) {
			t.Errorf("%s: the checker accepted a history no order explains", name)
		}
	}
	ok := []histOp{
		{kind: opSet, key: 200, call: 1, ret: 3},
		{kind: opSwap, arg: 1, key: 300, out: modelState{2, 3, 300}, call: 2, ret: 4},
		{kind: opPin, out: modelState{2, 3, 300}, call: 5, ret: 6},
	}
	if !linearizable(ok, init) {
		t.Error("the checker rejected a swap that overlapped a publish and won")
	}
}
