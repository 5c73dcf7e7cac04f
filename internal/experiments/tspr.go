package experiments

import (
	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

// TopicSensitive implements Haveliwala's topic-sensitive PageRank
// [Hav02], the third related-work baseline: one PageRank vector is
// precomputed per topic (with random jumps restricted to the topic's
// node set), and a query is answered from the vector of its most
// relevant topic — or a mixture. Unlike ObjectRank2 it cannot adapt to
// arbitrary keyword combinations: queries are folded onto the fixed
// topic inventory.
type TopicSensitive struct {
	vectors [][]float64
	topics  []string
}

// BuildTopicSensitive precomputes one biased PageRank per topic.
// topicNodes[i] lists the nodes of topic i (the biased jump set).
func BuildTopicSensitive(g *graph.Graph, rates *graph.Rates, topics []string, topicNodes [][]graph.NodeID, opts rank.Options) *TopicSensitive {
	ts := &TopicSensitive{topics: append([]string(nil), topics...)}
	for _, nodes := range topicNodes {
		res := rank.ObjectRank(g, rates, nodes, opts)
		ts.vectors = append(ts.vectors, res.Scores)
	}
	return ts
}

// Topics returns the topic labels.
func (ts *TopicSensitive) Topics() []string { return append([]string(nil), ts.topics...) }

// Scores returns the score vector obtained by mixing the per-topic
// vectors with the given weights through rank.Combine (len(weights) must
// equal the topic count; the positive weights are normalized
// internally). A zero weight vector yields zeros.
func (ts *TopicSensitive) Scores(weights []float64) []float64 {
	if len(ts.vectors) == 0 {
		return nil
	}
	n := len(ts.vectors[0])
	out := make([]float64, n)
	if len(weights) != len(ts.vectors) {
		return out
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return out
	}
	var cs []float64
	var vs [][]float64
	for t, w := range weights {
		if w > 0 {
			cs = append(cs, w/total)
			vs = append(vs, ts.vectors[t])
		}
	}
	return rank.Combine(out, cs, vs)
}

// TopicWeightsByOverlap derives mixture weights for a query from the
// overlap between the query's base set and each topic's node set — the
// query-time topic-selection step of [Hav02], adapted from Web context
// (class probabilities) to typed graphs (base-set overlap).
func TopicWeightsByOverlap(base []graph.NodeID, topicNodes [][]graph.NodeID) []float64 {
	inBase := make(map[graph.NodeID]bool, len(base))
	for _, v := range base {
		inBase[v] = true
	}
	weights := make([]float64, len(topicNodes))
	for t, nodes := range topicNodes {
		for _, v := range nodes {
			if inBase[v] {
				weights[t]++
			}
		}
	}
	return weights
}
