// Package authorityflow is a from-scratch Go implementation of
// "Explaining and Reformulating Authority Flow Queries"
// (Varadarajan, Hristidis, Raschid — ICDE 2008).
//
// Authority-flow ranking answers keyword queries over typed data graphs
// (bibliographic databases, biological databases) by letting authority
// flow from the nodes that contain the query keywords (the base set)
// along typed edges, each edge type carrying a configurable authority
// transfer rate. This package provides:
//
//   - ObjectRank2 (Section 3 of the paper): authority-flow ranking with
//     an IR-weighted base set — random jumps land on base-set nodes in
//     proportion to their Okapi BM25 scores rather than uniformly.
//   - Explaining subgraphs (Section 4): for any result, the subgraph of
//     paths along which authority reached it, each edge annotated with
//     the amount of authority that flows over it and eventually arrives
//     at the result.
//   - Query reformulation from relevance feedback (Section 5):
//     content-based query expansion with terms weighted by the
//     authority they transfer to the user's feedback objects, and
//     structure-based adjustment of the authority transfer rates — the
//     mechanism that trains rates automatically instead of requiring a
//     domain expert.
//   - The substrates: typed data/schema graphs, a BM25 inverted index,
//     power-iteration ranking (PageRank and the original ObjectRank as
//     baselines), synthetic DBLP-style and biology-style dataset
//     generators, survey simulation, and evaluation metrics.
//
// # Quick start
//
//	ds, _ := authorityflow.GeneratePreset("dblptop", 0.1, 1)
//	eng, _ := authorityflow.NewEngine(ds.Graph, ds.Rates, authorityflow.Config{})
//	pin := eng.Pin() // one consistent view of corpus and rates
//	rs, _ := pin.Solve(ctx, authorityflow.SolveSpec{
//	    Queries: []*authorityflow.Query{authorityflow.NewQuery("olap")}})
//	res := rs[0]
//	top := res.TopK(10)
//	sg, _ := pin.ExplainCtx(ctx, res, top[0].Node, authorityflow.DefaultExplain())
//	ref, _ := pin.ReformulateWeightedCtx(ctx, res.Query, []*authorityflow.Subgraph{sg},
//	    nil, authorityflow.StructureOnly())
//	_, _ = eng.TrySetRates(ref.Rates, pin.Version()) // apply the learned rates
package authorityflow

import (
	"io"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/sim"
	"authorityflow/internal/storage"
)

// The facade holds what the commands (cmd/afq, cmd/datagen) and the
// compiled examples (example_test.go) call, and the types those
// signatures name — facade_test.go fails on a function with no such
// call site. The servers import internal/ directly.

// Graph model (internal/graph).
type (
	// Graph is a frozen typed data graph with its derived authority
	// transfer data graph.
	Graph = graph.Graph
	// Schema is a schema graph: node types and typed edges.
	Schema = graph.Schema
	// Builder accumulates nodes and edges and freezes them into a Graph.
	Builder = graph.Builder
	// Rates holds authority transfer rates per transfer edge type.
	Rates = graph.Rates
	// NodeID identifies a data-graph node.
	NodeID = graph.NodeID
	// TypeID identifies a node type.
	TypeID = graph.TypeID
	// EdgeTypeID identifies a schema edge type.
	EdgeTypeID = graph.EdgeTypeID
	// TransferTypeID identifies one direction of a schema edge type.
	TransferTypeID = graph.TransferTypeID
	// Direction distinguishes forward and backward transfer edges.
	Direction = graph.Direction
	// Attr is one name/value pair of a node.
	Attr = graph.Attr
)

// Forward and Backward are the two authority transfer directions of a
// schema edge.
const (
	Forward  = graph.Forward
	Backward = graph.Backward
)

// NewSchema returns an empty schema graph.
func NewSchema() *Schema { return graph.NewSchema() }

// NewBuilder returns a Builder for data graphs conforming to s.
func NewBuilder(s *Schema) *Builder { return graph.NewBuilder(s) }

// NewRates returns an all-zero rate vector for s.
func NewRates(s *Schema) *Rates { return graph.NewRates(s) }

// UniformRates returns a rate vector with every transfer rate set to r.
func UniformRates(s *Schema, r float64) *Rates { return graph.UniformRates(s, r) }

// TransferType maps a schema edge type and direction to its transfer
// type.
func TransferType(e EdgeTypeID, dir Direction) TransferTypeID {
	return graph.TransferType(e, dir)
}

// Queries and IR (internal/ir).
type (
	// Query is a weighted keyword query vector.
	Query = ir.Query
	// Index is the BM25 inverted index over node text.
	Index = ir.Index
)

// NewQuery builds a query from keywords, each with weight 1.
func NewQuery(keywords ...string) *Query { return ir.NewQuery(keywords...) }

// ParseQuery splits a free-text string into a keyword query.
func ParseQuery(text string) *Query { return ir.ParseQuery(text) }

// Ranking engine (internal/core).
type (
	// Engine is the ObjectRank2 query processor: an immutable Corpus
	// plus an atomically versioned rates snapshot. All read paths are
	// lock-free and safe under full concurrency with SetRates.
	Engine = core.Engine
	// Corpus is the immutable half of an engine — graph, index, options
	// and buffer pool — shareable between several engines.
	Corpus = core.Corpus
	// Pinned is a consistent engine view at one rates snapshot: every
	// read — Solve, ExplainCtx, ReformulateWeightedCtx — goes through
	// one, so multi-step flows (solve → explain → reformulate →
	// publish) see one corpus and one rate assignment.
	Pinned = core.Pinned
	// SolveSpec describes one ranking request for Pinned.Solve: the
	// queries (or a jump vector), the ranking mode, and the start
	// vectors.
	SolveSpec = core.SolveSpec
	// Config collects engine construction parameters.
	Config = core.Config
	// RankResult is one ObjectRank2 execution's outcome.
	RankResult = core.RankResult
	// Subgraph is an explaining subgraph.
	Subgraph = core.Subgraph
	// ExplainOptions control explaining-subgraph construction.
	ExplainOptions = core.ExplainOptions
	// ReformulateOptions control query reformulation.
	ReformulateOptions = core.ReformulateOptions
)

// NewEngine indexes g and returns an ObjectRank2 engine with the given
// authority transfer rates.
func NewEngine(g *Graph, rates *Rates, cfg Config) (*Engine, error) {
	return core.NewEngine(g, rates, cfg)
}

// NewEngineWith returns an engine over an existing (possibly shared)
// corpus with the given initial rates.
func NewEngineWith(c *Corpus, rates *Rates) (*Engine, error) { return core.NewEngineWith(c, rates) }

// NewCorpusWithIndex freezes a corpus around an ALREADY-BUILT inverted
// index — the binary-snapshot cold-start path, which skips the
// BuildIndex pass entirely. ix must cover exactly g's nodes.
func NewCorpusWithIndex(g *Graph, ix *Index, cfg Config) (*Corpus, error) {
	return core.NewCorpusWithIndex(g, ix, cfg)
}

// DefaultExplain returns the paper's explain setting: radius 3,
// threshold 0.002.
func DefaultExplain() ExplainOptions { return core.DefaultExplain() }

// ContentOnly, StructureOnly and ContentAndStructure are the paper's
// three survey reformulation settings.
func ContentOnly() ReformulateOptions         { return core.ContentOnly() }
func StructureOnly() ReformulateOptions       { return core.StructureOnly() }
func ContentAndStructure() ReformulateOptions { return core.ContentAndStructure() }

// Dataset is a corpus: graph, expert rates, name.
type Dataset = datagen.Dataset

// GeneratePreset builds one of the named synthetic corpora — the four
// Table 1 presets or the link-free "linkless" family (PresetNames
// lists them) — at the given scale and seed.
func GeneratePreset(name string, scale float64, seed int64) (*Dataset, error) {
	return datagen.Preset(name, scale, seed)
}

// PresetNames lists the valid dataset preset names.
func PresetNames() []string { return datagen.PresetNames() }

// Survey simulation (internal/sim).
type (
	// User is a simulated survey participant with hidden ground-truth
	// rates.
	User = sim.User
	// SessionConfig parameterizes a relevance-feedback session.
	SessionConfig = sim.SessionConfig
	// SessionResult aggregates a feedback session's statistics.
	SessionResult = sim.SessionResult
)

// NewUser builds a simulated user judging by the given ground-truth
// rates. resultType restricts judgments to one node type (-1 for all).
func NewUser(g *Graph, truth *Rates, cfg Config, topR int, resultType TypeID) (*User, error) {
	return sim.NewUser(g, truth, cfg, topR, resultType)
}

// DefaultSession returns the paper's survey protocol settings.
func DefaultSession(opts ReformulateOptions) SessionConfig { return sim.DefaultSession(opts) }

// RunSession executes one relevance-feedback session.
func RunSession(sys *Engine, user *User, q *Query, cfg SessionConfig) (*SessionResult, error) {
	return sim.RunSession(sys, user, q, cfg)
}

// Persistence and export (internal/storage).

// A corpus has one on-disk form, the versioned binary snapshot
// (AFQSNAP1; DESIGN.md §10): the frozen graph, the rates and the built
// inverted index as offset-indexed, CRC-checksummed flat sections.

// SaveDatasetFile writes ds to path as a binary corpus snapshot,
// indexed under the default configuration (what NewEngine would
// build).
func SaveDatasetFile(path string, ds *Dataset) error {
	return SaveCorpusSnapshotFile(path, ds, core.NewCorpus(ds.Graph, Config{}).Index())
}

// SaveCorpusSnapshotFile writes the binary corpus snapshot with an
// already-built index. A reloaded corpus answers queries bit-for-bit
// identically without rebuilding anything. The write is atomic
// (temp file + rename).
func SaveCorpusSnapshotFile(path string, ds *Dataset, ix *Index) error {
	return storage.WriteSnapshotFile(path, ds, ix)
}

// LoadCorpusSnapshotFile validates and loads a binary corpus snapshot:
// header, section table and per-section checksums are verified before
// any decoding, and every structural invariant is re-checked, so a
// truncated or corrupted file yields an error, never a panic. Pair the
// results with NewCorpusWithIndex + NewEngineWith for a cold start
// that skips graph building and indexing entirely.
func LoadCorpusSnapshotFile(path string) (*Dataset, *Index, error) {
	return storage.ReadSnapshotFile(path)
}

// ImportTSVFiles builds a dataset from a schema JSON document and two
// tab-separated files (nodes: id, type, name=value...; edges: from, to,
// role) — the path for loading your own database.
func ImportTSVFiles(schemaPath, nodesPath, edgesPath, name string) (*Dataset, error) {
	return storage.ImportTSVFiles(schemaPath, nodesPath, edgesPath, name)
}

// SaveRatesFile writes a (possibly trained) rate assignment to path as
// reviewable JSON keyed by transfer-type names.
func SaveRatesFile(path string, r *Rates) error { return storage.SaveRatesFile(path, r) }

// LoadRatesFile reads JSON rates from path for the given schema,
// validating them.
func LoadRatesFile(path string, s *Schema) (*Rates, error) { return storage.LoadRatesFile(path, s) }

// ExportSubgraphJSON renders an explaining subgraph as JSON.
func ExportSubgraphJSON(w io.Writer, g *Graph, sg *Subgraph) error {
	return storage.ExportJSON(w, g, sg)
}

// ExportSubgraphDOT renders an explaining subgraph as Graphviz DOT.
func ExportSubgraphDOT(w io.Writer, g *Graph, sg *Subgraph) error {
	return storage.ExportDOT(w, g, sg)
}

// ExportSubgraphHTML renders an explaining subgraph as a self-contained
// HTML page with an inline SVG visualization.
func ExportSubgraphHTML(w io.Writer, g *Graph, sg *Subgraph) error {
	return storage.ExportHTML(w, g, sg)
}
