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
//	ds, _ := authorityflow.GenerateDBLP(authorityflow.DBLPTopConfig().Scale(0.1))
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
	"net/http"
	"time"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/obs"
	"authorityflow/internal/rank"
	"authorityflow/internal/router"
	"authorityflow/internal/server"
	"authorityflow/internal/sim"
	"authorityflow/internal/storage"
)

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
	// Arc is one authority transfer arc.
	Arc = graph.Arc
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
	// BM25Params are the Okapi constants (k1, b, k3).
	BM25Params = ir.BM25Params
	// ScoredDoc is a base-set member with its IR score.
	ScoredDoc = ir.ScoredDoc
)

// NewQuery builds a query from keywords, each with weight 1.
func NewQuery(keywords ...string) *Query { return ir.NewQuery(keywords...) }

// ParseQuery splits a free-text string into a keyword query.
func ParseQuery(text string) *Query { return ir.ParseQuery(text) }

// DefaultBM25 returns the standard Okapi parameters.
func DefaultBM25() BM25Params { return ir.DefaultBM25() }

// Ranking engine (internal/core, internal/rank).
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
	// RankOptions control the power iteration (damping, threshold).
	RankOptions = rank.Options
	// RankResult is one ObjectRank2 execution's outcome.
	RankResult = core.RankResult
	// Ranked is one node with its score.
	Ranked = rank.Ranked
	// Subgraph is an explaining subgraph.
	Subgraph = core.Subgraph
	// FlowArc is one explaining-subgraph edge with its flows.
	FlowArc = core.FlowArc
	// Path is one authority-flow path to an explained target.
	Path = core.Path
	// ExplainOptions control explaining-subgraph construction.
	ExplainOptions = core.ExplainOptions
	// ReformulateOptions control query reformulation.
	ReformulateOptions = core.ReformulateOptions
	// Reformulation is one feedback iteration's outcome.
	Reformulation = core.Reformulation
	// WeightedTerm is one expansion term with its weight.
	WeightedTerm = core.WeightedTerm
)

// NewEngine indexes g and returns an ObjectRank2 engine with the given
// authority transfer rates.
func NewEngine(g *Graph, rates *Rates, cfg Config) (*Engine, error) {
	return core.NewEngine(g, rates, cfg)
}

// NewCorpus indexes g and freezes the immutable substrate of a query
// processor; pair with NewEngineWith to share it across engines.
func NewCorpus(g *Graph, cfg Config) *Corpus { return core.NewCorpus(g, cfg) }

// NewEngineWith returns an engine over an existing (possibly shared)
// corpus with the given initial rates.
func NewEngineWith(c *Corpus, rates *Rates) (*Engine, error) { return core.NewEngineWith(c, rates) }

// NewCorpusWithIndex freezes a corpus around an ALREADY-BUILT inverted
// index — the binary-snapshot cold-start path, which skips the
// BuildIndex pass entirely. ix must cover exactly g's nodes.
func NewCorpusWithIndex(g *Graph, ix *Index, cfg Config) (*Corpus, error) {
	return core.NewCorpusWithIndex(g, ix, cfg)
}

// ErrRatesConflict is returned by Engine.TrySetRates when the rates
// were replaced concurrently (optimistic-concurrency conflict).
var ErrRatesConflict = core.ErrRatesConflict

// ErrGenerationConflict is returned by Engine.SwapCorpus when the
// served corpus generation changed concurrently (the generational twin
// of ErrRatesConflict).
var ErrGenerationConflict = core.ErrGenerationConflict

// DefaultRankOptions returns the paper's defaults: damping 0.85,
// threshold 0.002, 200 iterations.
func DefaultRankOptions() RankOptions { return rank.Defaults() }

// DefaultExplain returns the paper's explain setting: radius 3,
// threshold 0.002.
func DefaultExplain() ExplainOptions { return core.DefaultExplain() }

// ContentOnly, StructureOnly and ContentAndStructure are the paper's
// three survey reformulation settings.
func ContentOnly() ReformulateOptions         { return core.ContentOnly() }
func StructureOnly() ReformulateOptions       { return core.StructureOnly() }
func ContentAndStructure() ReformulateOptions { return core.ContentAndStructure() }

// Synthetic datasets (internal/datagen).
type (
	// Dataset is a generated corpus: graph, expert rates, name.
	Dataset = datagen.Dataset
	// DBLPConfig parameterizes the bibliographic generator.
	DBLPConfig = datagen.DBLPConfig
	// BioConfig parameterizes the biological generator.
	BioConfig = datagen.BioConfig
	// DBLPSchema bundles the bibliographic schema with type handles.
	DBLPSchema = datagen.DBLPSchema
	// BioSchema bundles the biological schema with type handles.
	BioSchema = datagen.BioSchema
)

// GenerateDBLP builds a synthetic bibliographic graph (Figure 2 schema).
func GenerateDBLP(c DBLPConfig) (*Dataset, error) { return datagen.GenerateDBLP(c) }

// GenerateBio builds a synthetic biological graph (Figure 4 schema).
func GenerateBio(c BioConfig) (*Dataset, error) { return datagen.GenerateBio(c) }

// DBLPTopConfig approximates the paper's DBLPtop dataset.
func DBLPTopConfig() DBLPConfig { return datagen.DBLPTopConfig() }

// DBLPCompleteConfig approximates the paper's DBLPcomplete dataset.
func DBLPCompleteConfig() DBLPConfig { return datagen.DBLPCompleteConfig() }

// DS7Config approximates the paper's DS7 dataset.
func DS7Config() BioConfig { return datagen.DS7Config() }

// DS7CancerConfig approximates the paper's DS7cancer dataset.
func DS7CancerConfig() BioConfig { return datagen.DS7CancerConfig() }

// NewDBLPSchema builds the Figure 2 bibliographic schema.
func NewDBLPSchema() *DBLPSchema { return datagen.NewDBLPSchema() }

// NewBioSchema builds the Figure 4 biological schema.
func NewBioSchema() *BioSchema { return datagen.NewBioSchema() }

// Survey simulation and evaluation (internal/sim, internal/eval).
type (
	// User is a simulated survey participant with hidden ground-truth
	// rates.
	User = sim.User
	// SessionConfig parameterizes a relevance-feedback session.
	SessionConfig = sim.SessionConfig
	// SessionResult aggregates a feedback session's statistics.
	SessionResult = sim.SessionResult
	// IterationStats records one feedback iteration.
	IterationStats = sim.IterationStats
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

// CosineSimilarity returns the cosine between two vectors (the rate
// training measure of Figures 11/13).
func CosineSimilarity(a, b []float64) float64 { return eval.CosineSimilarity(a, b) }

// PrecisionAtK returns the fraction of the first k results that are
// relevant.
func PrecisionAtK(results []Ranked, relevant map[NodeID]bool, k int) float64 {
	return eval.PrecisionAtK(results, relevant, k)
}

// Persistence and export (internal/storage).

// A corpus has one on-disk form, the versioned binary snapshot
// (AFQSNAP1; DESIGN.md §10): the frozen graph, the rates and the built
// inverted index as offset-indexed, CRC-checksummed flat sections. The
// Dataset functions are the index-free convenience pair over it: saving
// builds the default index first, loading drops the stored one.

// SaveDataset writes ds to w as a binary corpus snapshot, indexed under
// the default configuration (what NewEngine would build).
func SaveDataset(w io.Writer, ds *Dataset) error {
	return storage.WriteSnapshot(w, ds, core.NewCorpus(ds.Graph, Config{}).Index())
}

// LoadDataset reads a binary corpus snapshot from r.
func LoadDataset(r io.Reader) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ds, _, err := storage.ReadSnapshot(data)
	return ds, err
}

// SaveDatasetFile is SaveDataset to path, written atomically.
func SaveDatasetFile(path string, ds *Dataset) error {
	return SaveCorpusSnapshotFile(path, ds, core.NewCorpus(ds.Graph, Config{}).Index())
}

// LoadDatasetFile is LoadDataset from path.
func LoadDatasetFile(path string) (*Dataset, error) {
	ds, _, err := LoadCorpusSnapshotFile(path)
	return ds, err
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

// ExportSubgraphJSON renders an explaining subgraph as JSON.
func ExportSubgraphJSON(w io.Writer, g *Graph, sg *Subgraph) error {
	return storage.ExportJSON(w, g, sg)
}

// ExportSubgraphDOT renders an explaining subgraph as Graphviz DOT.
func ExportSubgraphDOT(w io.Writer, g *Graph, sg *Subgraph) error {
	return storage.ExportDOT(w, g, sg)
}

// NewServer builds the HTTP JSON API server of the deployed demo over a
// dataset. Mount Handler() into any http server. Every read is served
// through the serving cache; WithServerCache sizes it.
func NewServer(ds *Dataset, cfg Config, opts ...ServerOption) (*server.Server, error) {
	return server.New(ds, cfg, opts...)
}

// Server is the HTTP JSON API of the deployed ObjectRank2 demo.
type Server = server.Server

// ServerOption configures optional server behaviour.
type ServerOption = server.Option

// WithServerCache sizes the server's serving cache: total byte budget
// (0 = 64 MiB).
func WithServerCache(maxBytes int64) ServerOption {
	return server.WithCache(maxBytes, 0)
}

// v1 HTTP API surface (internal/server/api.go; full contract in
// API.md). Every route lives under /v1 (plus /metrics). These are the
// wire DTOs on BOTH ends: the server renders them and APIClient decodes
// them.
type (
	// APIResult is one JSON-rendered ranked node.
	APIResult = server.Result
	// QueryResponse is the /v1/query payload.
	QueryResponse = server.QueryResponse
	// BatchQueryItem is one query of a /v1/query/batch request.
	BatchQueryItem = server.BatchQueryItem
	// BatchQueryRequest is the POST /v1/query/batch body.
	BatchQueryRequest = server.BatchQueryRequest
	// BatchQueryResponse is the /v1/query/batch payload.
	BatchQueryResponse = server.BatchQueryResponse
	// ReformulateResponse is the /v1/reformulate payload.
	ReformulateResponse = server.ReformulateResponse
	// ExpansionTerm is one content-expansion term of a reformulation.
	ExpansionTerm = server.ExpansionTerm
	// HealthResponse is the /v1/healthz payload.
	HealthResponse = server.HealthResponse
	// RatesResponse is the /v1/rates payload.
	RatesResponse = server.RatesResponse
	// RatesPublishRequest is the POST /v1/rates body: publish an
	// already-trained rate vector through the optimistic CAS — the
	// fleet-propagation primitive of the scale-out tier.
	RatesPublishRequest = server.RatesPublishRequest
	// StatsResponse is the /v1/stats payload.
	StatsResponse = server.StatsResponse
	// APIErrorInfo is the body of the v1 error envelope.
	APIErrorInfo = server.ErrorInfo
	// APIErrorEnvelope is the uniform v1 error payload.
	APIErrorEnvelope = server.ErrorEnvelope
	// APIError is a non-2xx v1 response decoded by APIClient: HTTP
	// status plus the envelope's stable code, message and request ID.
	APIError = server.APIError
	// APIClient is the typed Go client of the /v1 HTTP surface.
	APIClient = server.Client
)

// Stable machine-readable error codes of the v1 error envelope.
const (
	CodeInvalidArgument = server.CodeInvalidArgument
	CodeVersionConflict = server.CodeVersionConflict
	CodeShed            = server.CodeShed
	CodeDeadline        = server.CodeDeadline
	CodeCancelled       = server.CodeCancelled
	CodeInternal        = server.CodeInternal
)

// MaxBatchQueries caps the number of queries one /v1/query/batch may
// carry.
const MaxBatchQueries = server.MaxBatchQueries

// NewAPIClient builds a typed client for a server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient uses http.DefaultClient.
// Options add a per-attempt request timeout and connection-error
// retries (see WithClientRequestTimeout, WithClientRetries).
func NewAPIClient(baseURL string, httpClient *http.Client, opts ...APIClientOption) *APIClient {
	return server.NewClient(baseURL, httpClient, opts...)
}

// APIClientOption configures optional APIClient behaviour.
type APIClientOption = server.ClientOption

// WithClientRequestTimeout bounds every request attempt with its own
// deadline, layered under (never extending) the caller's context.
func WithClientRequestTimeout(d time.Duration) APIClientOption {
	return server.WithRequestTimeout(d)
}

// WithClientRetries retries a request up to n extra times after a
// connection-level failure (no HTTP response arrived); HTTP error
// statuses are never retried.
func WithClientRetries(n int) APIClientOption {
	return server.WithRetries(n)
}

// Scale-out serving tier (internal/router): the afqrouter coordinator
// fronts N replica servers behind the same /v1 surface — rendezvous
// routing for singles, deterministic batch fan-out, and fleet-wide
// propagation of rates publications and corpus swaps. See DESIGN.md
// §11.
type (
	// Router is the scale-out coordinator; construct with NewRouter.
	Router = router.Router
	// RouterOptions configure a Router (timeouts, retries, health
	// sweeping, observability).
	RouterOptions = router.Options
	// RouterObsOptions configure the router's observability.
	RouterObsOptions = router.ObsOptions
	// RouterHealthResponse is the /v1/router/healthz fleet view.
	RouterHealthResponse = router.RouterHealthResponse
	// RouterReplicaStatus is one replica's row in the fleet view.
	RouterReplicaStatus = router.ReplicaStatus
)

// NewRouter builds a coordinator over the given replica base URLs. Run
// exactly one router per fleet — it is the serialization point that
// keeps replica version counters comparable.
func NewRouter(replicaURLs []string, o RouterOptions) (*Router, error) {
	return router.New(replicaURLs, o)
}

// ServerObsOptions configure the server's observability subsystem:
// access/slow-query logs, the slow-query threshold, pprof, and an
// optional shared metric registry. The zero value keeps /metrics and
// request IDs on with everything else off.
type ServerObsOptions = server.ObsOptions

// WithServerObservability configures the server's observability
// subsystem (see ServerObsOptions). Servers built without it still
// serve /metrics and X-Request-ID from a default configuration.
func WithServerObservability(o ServerObsOptions) ServerOption {
	return server.WithObservability(o)
}

// ServerAdmissionOptions bound the server's concurrent query work:
// MaxInflight admission slots for the expensive endpoints, a QueueWait
// shedding budget (503 + Retry-After when exceeded), and a QueryTimeout
// per-request deadline (504 when it fires; clients may shorten it via
// the X-Request-Timeout-Ms header, never extend it). The zero value
// disables every limit.
type ServerAdmissionOptions = server.AdmissionOptions

// WithServerAdmission configures admission control and per-request
// deadlines on the server's expensive endpoints (/query, /explain,
// /reformulate); operator endpoints are never throttled.
func WithServerAdmission(o ServerAdmissionOptions) ServerOption {
	return server.WithAdmission(o)
}

// MetricsRegistry is the stdlib-only Prometheus-text metric registry of
// internal/obs; pass one in ServerObsOptions.Registry to co-host
// several servers' metric families on a single exposition endpoint.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Serving cache (internal/cache): version-keyed term-vector and result
// caches with singleflight miss collapsing, LRU byte budgets and
// on-demand warm-start reuse across rate updates.
type (
	// CachedEngine wraps an Engine with the serving cache.
	CachedEngine = cache.CachedEngine
	// CacheOptions configure a CachedEngine (its byte budget).
	CacheOptions = cache.Options
	// CacheStats is a point-in-time snapshot of cache counters.
	CacheStats = cache.StatsSnapshot
	// CachedAnswer is one cached query answer (top-k items plus
	// provenance).
	CachedAnswer = cache.Answer
)

// NewCachedEngine wraps eng with the serving cache.
func NewCachedEngine(eng *Engine, opts CacheOptions) *CachedEngine { return cache.New(eng, opts) }

// GeneratePreset builds one of the named corpora — the four Table 1
// presets ("dblptop", "dblpcomplete", "ds7", "ds7cancer") or the
// link-free "linkless" family — at the given scale and seed.
func GeneratePreset(name string, scale float64, seed int64) (*Dataset, error) {
	return datagen.Preset(name, scale, seed)
}

// PresetNames lists the valid dataset preset names.
func PresetNames() []string { return datagen.PresetNames() }

// SubsetDataset extracts a keyword-focused sub-corpus: anchor nodes
// containing any keyword, expanded by radius hops, the way the paper
// derived DBLPtop and DS7cancer from their full corpora.
func SubsetDataset(ds *Dataset, keywords []string, radius int, name string) (*Dataset, error) {
	return datagen.Subset(ds, keywords, radius, name)
}

// ComputeGraphStats summarizes a graph's structure (per-type counts,
// degree extremes, weak components).
func ComputeGraphStats(g *Graph) graph.Stats { return graph.ComputeStats(g) }

// GraphStats is a graph's structural summary.
type GraphStats = graph.Stats

// SaveRates writes a (possibly trained) rate assignment as reviewable
// JSON keyed by transfer-type names.
func SaveRates(w io.Writer, r *Rates) error { return storage.SaveRates(w, r) }

// LoadRates reads a JSON rate assignment for the given schema,
// validating it.
func LoadRates(r io.Reader, s *Schema) (*Rates, error) { return storage.LoadRates(r, s) }

// SaveRatesFile writes rates as JSON to path.
func SaveRatesFile(path string, r *Rates) error { return storage.SaveRatesFile(path, r) }

// LoadRatesFile reads JSON rates from path for the given schema.
func LoadRatesFile(path string, s *Schema) (*Rates, error) { return storage.LoadRatesFile(path, s) }

// Snippet extracts a query-focused excerpt from text for result
// display.
func Snippet(text string, q *Query, width int) string { return ir.Snippet(text, q, width) }

// Comparison answers "why is A ranked above B": the score gap
// decomposed into base-set contributions and per-edge-type authority
// inflows, read off the two explaining subgraphs.
type Comparison = core.Comparison

// TypeFlow is one edge type's contribution within a Comparison.
type TypeFlow = core.TypeFlow

// ImportTSV builds a dataset from a schema JSON document and two
// tab-separated files (nodes: id, type, name=value...; edges: from, to,
// role) — the path for loading your own database.
func ImportTSV(schema, nodes, edges io.Reader, name string) (*Dataset, error) {
	return storage.ImportTSV(schema, nodes, edges, name)
}

// ImportTSVFiles is ImportTSV over file paths.
func ImportTSVFiles(schemaPath, nodesPath, edgesPath, name string) (*Dataset, error) {
	return storage.ImportTSVFiles(schemaPath, nodesPath, edgesPath, name)
}

// ExportTSV writes a dataset in the ImportTSV format for round trips
// and hand edits.
func ExportTSV(ds *Dataset, schema, nodes, edges io.Writer) error {
	return storage.ExportTSV(ds, schema, nodes, edges)
}

// ClickModel simulates position-biased implicit feedback
// (click-through), feeding ReformulateWeighted.
type ClickModel = sim.ClickModel

// Click is one simulated click with its confidence weight.
type Click = sim.Click

// NewClickModel builds a deterministic click simulator.
func NewClickModel(seed int64, positionBias, clickProb float64) *ClickModel {
	return sim.NewClickModel(seed, positionBias, clickProb)
}

// ClickNodes returns the clicked nodes of a click list.
func ClickNodes(clicks []Click) []NodeID { return sim.Nodes(clicks) }

// ClickConfidences returns the confidence weights of a click list.
func ClickConfidences(clicks []Click) []float64 { return sim.Confidences(clicks) }

// ExportSubgraphHTML renders an explaining subgraph as a self-contained
// HTML page with an inline SVG visualization.
func ExportSubgraphHTML(w io.Writer, g *Graph, sg *Subgraph) error {
	return storage.ExportHTML(w, g, sg)
}
