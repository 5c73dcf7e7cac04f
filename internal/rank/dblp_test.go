package rank_test

import (
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

func init() {
	rank.DBLPCorpus = func() (*graph.Graph, *graph.Rates, error) {
		cfg := datagen.DBLPTopConfig().Scale(0.05)
		cfg.Seed = 7
		ds, err := datagen.GenerateDBLP(cfg)
		if err != nil {
			return nil, nil, err
		}
		return ds.Graph, ds.Rates, nil
	}
}
