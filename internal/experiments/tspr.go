package experiments

import (
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
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
}

// BuildTopicSensitive precomputes one biased PageRank per topic under
// pin. topicNodes[i] lists the nodes of topic i (the biased jump set);
// its vector is the cold Solve column whose jump spreads evenly over
// them (solveOver).
func BuildTopicSensitive(pin *core.Pinned, topicNodes [][]graph.NodeID) (*TopicSensitive, error) {
	ts := &TopicSensitive{}
	for _, nodes := range topicNodes {
		res, err := solveOver(pin, nodes)
		if err != nil {
			return nil, err
		}
		ts.vectors = append(ts.vectors, res.Scores)
	}
	return ts, nil
}

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

// topicNodeSets lists, per generator topic, the nodes of type
// resultType the topical proxy of Table 2 puts in the topic
// (papersWithTwoOf its pool): the biased jump sets of the baselines
// extension's topic-sensitive PageRank.
func topicNodeSets(g *graph.Graph, resultType graph.TypeID) [][]graph.NodeID {
	var topicNodes [][]graph.NodeID
	for ti := 0; ti < datagen.NumTopics(); ti++ {
		pool := map[string]bool{}
		for _, tw := range datagen.TopicWords(ti) {
			pool[tw] = true
		}
		topicNodes = append(topicNodes, papersWithTwoOf(g, resultType, pool))
	}
	return topicNodes
}
