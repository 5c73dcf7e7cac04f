package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
)

// benchConfig is the default afqserver corpus (-gen dblptop -scale 0.1)
// so the cold-start comparison reflects what an operator actually
// boots.
func benchConfig() datagen.DBLPConfig {
	return datagen.DBLPTopConfig().Scale(0.1)
}

// BenchmarkColdStartBuild is the in-process path an un-snapshotted
// server pays on every boot: generate/load the dataset, freeze the
// graph, tokenize and index every node.
func BenchmarkColdStartBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := datagen.GenerateDBLP(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if eng.Pin().Corpus().Index().NumDocs() == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkColdStartSnapshot is the snapshot path: read the file,
// checksum-validate, build the graph from its edges, decode the
// index's postings, and stand up the engine — no tokenizing, no
// indexing. It runs on the afqserver default corpus (scale 0.1) and on
// afqbench's (scale 1.0).
func BenchmarkColdStartSnapshot(b *testing.B) {
	for _, scale := range []float64{0.1, 1.0} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			benchColdStartSnapshot(b, datagen.DBLPTopConfig().Scale(scale))
		})
	}
}

// builtCorpus generates dblptop at cfg and builds its engine, whose
// corpus owns the inverted index a snapshot stores.
func builtCorpus(b *testing.B, cfg datagen.DBLPConfig) (*datagen.Dataset, *core.Engine) {
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return ds, eng
}

func benchColdStartSnapshot(b *testing.B, cfg datagen.DBLPConfig) {
	ds, eng := builtCorpus(b, cfg)
	path := filepath.Join(b.TempDir(), "corpus.snap")
	if err := WriteSnapshotFile(path, ds, eng.Pin().Corpus().Index()); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds2, ix2, err := ReadSnapshotFile(path)
		if err != nil {
			b.Fatal(err)
		}
		corpus, err := core.NewCorpusWithIndex(ds2.Graph, ix2, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		eng2, err := core.NewEngineWith(corpus, ds2.Rates)
		if err != nil {
			b.Fatal(err)
		}
		if eng2.Pin().Corpus().Index().NumDocs() != eng.Pin().Corpus().Index().NumDocs() {
			b.Fatal("index mismatch")
		}
	}
}

// BenchmarkSnapshotWrite is the encode half of the snapshot path:
// WriteSnapshot of a built corpus to io.Discard, on the same two
// corpora as BenchmarkColdStartSnapshot.
func BenchmarkSnapshotWrite(b *testing.B) {
	for _, scale := range []float64{0.1, 1.0} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			ds, eng := builtCorpus(b, datagen.DBLPTopConfig().Scale(scale))
			ix := eng.Pin().Corpus().Index()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteSnapshot(io.Discard, ds, ix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
