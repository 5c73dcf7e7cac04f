package experiments

import (
	"math"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

// tsprFixture builds the topic-sensitive vectors of two disjoint
// citation clusters: topic A = {0,1}, topic B = {2,3}.
func tsprFixture(t *testing.T) *TopicSensitive {
	t.Helper()
	g, r := paperGraph(t, 4, [][2]int{{0, 1}, {2, 3}}, 0.7, 0.1)
	e, err := core.NewEngine(g, r, core.Config{Rank: rank.Options{Threshold: 1e-10, MaxIters: 500}})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := BuildTopicSensitive(e.Pin(), [][]graph.NodeID{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTopicSensitiveSeparation(t *testing.T) {
	ts := tsprFixture(t)
	// Pure topic-A weights score only cluster A.
	sa := ts.Scores([]float64{1, 0})
	if sa[0] <= 0 || sa[1] <= 0 {
		t.Errorf("topic A nodes unscored: %v", sa)
	}
	if sa[2] != 0 || sa[3] != 0 {
		t.Errorf("topic B leaked into topic A vector: %v", sa)
	}
	// An even mixture scores all four, each cluster at half strength.
	mix := ts.Scores([]float64{1, 1})
	if math.Abs(mix[0]-sa[0]/2) > 1e-12 {
		t.Errorf("mixture not convex: %v vs %v", mix[0], sa[0]/2)
	}
}

func TestTopicSensitiveDegenerateWeights(t *testing.T) {
	ts := tsprFixture(t)
	for _, w := range [][]float64{{0, 0}, {-1, -2}, {1}} {
		got := ts.Scores(w)
		for i, s := range got {
			if s != 0 {
				t.Errorf("weights %v: score[%d] = %v, want 0", w, i, s)
			}
		}
	}
	empty := &TopicSensitive{}
	if got := empty.Scores(nil); got != nil {
		t.Errorf("empty TS scores = %v", got)
	}
}

func TestTopicWeightsByOverlap(t *testing.T) {
	topics := [][]graph.NodeID{{0, 1, 2}, {3, 4}}
	base := []graph.NodeID{1, 2, 4}
	w := TopicWeightsByOverlap(base, topics)
	if w[0] != 2 || w[1] != 1 {
		t.Errorf("weights = %v", w)
	}
	if w := TopicWeightsByOverlap(nil, topics); w[0] != 0 || w[1] != 0 {
		t.Errorf("empty base weights = %v", w)
	}
}
