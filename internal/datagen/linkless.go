package datagen

import (
	"fmt"
	"math/rand"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// The linkless family exercises link-free authority: a corpus of bare
// documents with no citation, venue, or authorship structure at all.
// The only arcs are the knn edges of the ir cluster graph — each
// document points at the K peers whose tf-idf language models are most
// similar — so authority flows along content similarity instead of
// explicit links. Everything downstream (snapshots, hub scores,
// audits, rate training, the router) runs on the result unchanged.

// LinklessSchema is the one-node-type schema of a linkless corpus:
// Document nodes joined by similarTo cluster-graph arcs.
type LinklessSchema struct {
	Schema   *graph.Schema
	Document graph.TypeID

	SimilarTo graph.EdgeTypeID // Document -> Document (knn)
}

// NewLinklessSchema builds the linkless schema graph.
func NewLinklessSchema() *LinklessSchema {
	s := graph.NewSchema()
	l := &LinklessSchema{Schema: s}
	l.Document = s.AddNodeType("Document")
	l.SimilarTo = s.MustAddEdgeType("similarTo", l.Document, l.Document)
	return l
}

// Rates returns the authority transfer assignment for the cluster
// graph: similarity is symmetric, so forward and backward shares are
// equal and a document's total outflow across both roles is 1.
func (l *LinklessSchema) Rates() *graph.Rates {
	r := graph.NewRates(l.Schema)
	r.Set(l.SimilarTo, graph.Forward, 0.5)
	r.Set(l.SimilarTo, graph.Backward, 0.5)
	return r
}

// LinklessConfig parameterizes the linkless generator.
type LinklessConfig struct {
	// Docs is the number of Document nodes.
	Docs int
	// Neighbors is the knn fan-out of the cluster graph
	// (ir.DefaultClusterK when <= 0).
	Neighbors int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultLinklessConfig returns the standard linkless corpus shape:
// enough documents for topical clusters to emerge, with the default
// knn fan-out.
func DefaultLinklessConfig() LinklessConfig {
	return LinklessConfig{
		Docs:      5000,
		Neighbors: ir.DefaultClusterK,
		Seed:      1,
	}
}

// Scale returns a copy of the config with the document count
// multiplied by f (at least 1).
func (c LinklessConfig) Scale(f float64) LinklessConfig {
	d := int(float64(c.Docs) * f)
	if d < 1 {
		d = 1
	}
	c.Docs = d
	return c
}

// GenerateLinkless builds a linkless corpus: topic-mixture document
// titles (same vocabulary model as the bibliographic generator, so the
// benchmark keywords stay meaningful), indexed into tf-idf language
// models, with the knn cluster graph as the only arc source.
func GenerateLinkless(c LinklessConfig) (*Dataset, error) {
	if c.Docs <= 0 {
		return nil, fmt.Errorf("datagen: non-positive document count in %+v", c)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	l := NewLinklessSchema()
	b := graph.NewBuilder(l.Schema)

	titles := make([]string, c.Docs)
	nodes := make([]graph.NodeID, c.Docs)
	for i := range titles {
		topic := rng.Intn(NumTopics())
		secondary := -1
		if rng.Intn(3) == 0 {
			secondary = rng.Intn(NumTopics())
		}
		titles[i] = titleFor(rng, topic, secondary)
		nodes[i] = b.AddNode(l.Document, graph.Attr{Name: "Title", Value: titles[i]})
	}

	ix := ir.BuildIndex(c.Docs, func(i int) string { return titles[i] }, ir.DefaultBM25())
	edges := ix.ClusterGraph(ir.ClusterOptions{K: c.Neighbors})
	for _, e := range edges {
		b.AddEdge(nodes[e.From], nodes[e.To], l.SimilarTo)
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: "linkless", Graph: g, Rates: l.Rates()}, nil
}
