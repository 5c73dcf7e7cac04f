package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/server"
	"authorityflow/internal/storage"
)

// This file and probe.go are the only ones that call into the system's
// packages in-process; everything else sees the system through HTTP,
// /metrics and /proc.

// corpusPreset and corpusSeed fix the corpus: every run of every
// workload measures the same graph, so only the request sequence
// follows -seed.
const (
	corpusPreset = "dblptop"
	corpusSeed   = 1
)

// corpus is the generated dataset with its index, as the benchmark
// process holds it: to write the snapshot the system boots from, to
// draw the workload vocabulary, and to recompute answers.
type corpus struct {
	ds *datagen.Dataset
	ix *ir.Index
}

// generateCorpus builds the dataset at scale and indexes it.
func generateCorpus(scale float64) (*corpus, error) {
	ds, err := datagen.Preset(corpusPreset, scale, corpusSeed)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", corpusPreset, err)
	}
	g := ds.Graph
	ix := ir.BuildIndex(g.NumNodes(), func(i int) string { return g.Text(graph.NodeID(i)) }, ir.DefaultBM25())
	return &corpus{ds: ds, ix: ix}, nil
}

// writeSnapshot writes the AFQSNAP1 snapshot the system boots from and
// returns its size in bytes.
func (c *corpus) writeSnapshot(path string) (int64, error) {
	if err := storage.WriteSnapshotFile(path, c.ds, c.ix); err != nil {
		return 0, fmt.Errorf("writing snapshot: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("writing snapshot: %w", err)
	}
	return fi.Size(), nil
}

func (c *corpus) vocab() *vocab {
	return newVocab(c.ix.TermsWithDF(tailDF), c.ix.DF)
}

// loadEngine cold-starts an uncached engine from the snapshot, the way
// afqserver -snapshot does, and reports how long that took.
func loadEngine(snapshot string) (*core.Engine, *datagen.Dataset, *ir.Index, time.Duration, error) {
	t0 := time.Now()
	ds, ix, err := storage.ReadSnapshotFile(snapshot)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("loading snapshot: %w", err)
	}
	cp, err := core.NewCorpusWithIndex(ds.Graph, ix, core.Config{})
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("loading snapshot: %w", err)
	}
	eng, err := core.NewEngineWith(cp, ds.Rates)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("loading snapshot: %w", err)
	}
	return eng, ds, ix, time.Since(t0), nil
}

// maxRecomputes bounds the distinct answers one run recomputes, which
// bounds the time the oracle adds to a run (about 17 ms each).
const maxRecomputes = 100

// recompute checks the sampled answers against an uncached in-process
// engine booted from the same snapshot: same top-k node ids in the
// same order, scores within scoreTolerance. Only answers computed
// under the snapshot's own rates can be recomputed, which is every
// answer of a workload that publishes nothing. It returns a description
// of each mismatch.
func recompute(snapshot string, samples []oracleSample) (mismatches []string, err error) {
	eng, _, _, _, err := loadEngine(snapshot)
	if err != nil {
		return nil, err
	}
	pin := eng.Pin()
	type key struct {
		q, mode string
		k       int
	}
	done := make(map[key]bool)
	for _, s := range samples {
		k := key{s.Q, s.Mode, s.K}
		if done[k] {
			continue
		}
		if len(done) >= maxRecomputes {
			break
		}
		done[k] = true
		if s.Generation != pin.Generation() || s.Version != pin.Version() {
			mismatches = append(mismatches, fmt.Sprintf("%q: answered under (generation %d, version %d), the snapshot is (%d, %d)",
				s.Q, s.Generation, s.Version, pin.Generation(), pin.Version()))
			continue
		}
		mode, err := core.ParseMode(s.Mode)
		if err != nil {
			return mismatches, err
		}
		res, err := pin.RankModeCtx(context.Background(), ir.ParseQuery(s.Q), mode)
		if err != nil {
			return mismatches, fmt.Errorf("recomputing %q: %w", s.Q, err)
		}
		top := res.TopK(s.K)
		want := make([]server.Result, len(top))
		for i, r := range top {
			want[i] = server.Result{Node: int64(r.Node), Score: r.Score}
		}
		eng.Release(res)
		if err := sameRanking(want, s.Results); err != nil {
			mismatches = append(mismatches, fmt.Sprintf("%q mode=%q: %v", s.Q, s.Mode, err))
		}
	}
	return mismatches, nil
}
