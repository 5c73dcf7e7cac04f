package sim

import (
	"math"
	"math/rand"

	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

// ClickModel simulates implicit feedback, the paper's remark that "the
// user's click-through could be used to implicitly derive such
// markings": instead of explicitly marking every relevant result, the
// user clicks relevant results with a position-biased probability, and
// each click carries a confidence weight rather than a hard mark. Used
// with Pinned.ReformulateWeightedCtx.
type ClickModel struct {
	rng *rand.Rand
	// PositionBias is the per-rank decay of examination probability:
	// the user examines rank i (0-based) with probability
	// PositionBias^i. Typical web click models use ~0.7–0.9.
	PositionBias float64
	// ClickProb is the probability of clicking an examined relevant
	// result.
	ClickProb float64
}

// NewClickModel builds a deterministic (seeded) click simulator.
func NewClickModel(seed int64, positionBias, clickProb float64) *ClickModel {
	if positionBias <= 0 || positionBias > 1 {
		positionBias = 0.85
	}
	if clickProb <= 0 || clickProb > 1 {
		clickProb = 0.8
	}
	return &ClickModel{
		rng:          rand.New(rand.NewSource(seed)),
		PositionBias: positionBias,
		ClickProb:    clickProb,
	}
}

// Click is one simulated click with its implicit-feedback confidence.
type Click struct {
	Node graph.NodeID
	// Confidence discounts the click by its position: clicks deep in
	// the ranking imply a more deliberate choice, but the examination
	// bias means they are rarer; we use the standard inverse-
	// examination correction capped at 1.
	Confidence float64
}

// Simulate rolls the cascade: the user scans results top-down, examines
// rank i with probability PositionBias^i, and clicks examined relevant
// results with probability ClickProb. Returns the clicks in rank order.
func (m *ClickModel) Simulate(presented []rank.Ranked, relevant map[graph.NodeID]bool) []Click {
	var out []Click
	for i, r := range presented {
		examine := math.Pow(m.PositionBias, float64(i))
		if m.rng.Float64() > examine {
			continue
		}
		if !relevant[r.Node] {
			continue
		}
		if m.rng.Float64() > m.ClickProb {
			continue
		}
		conf := 1.0
		if examine > 0 {
			conf = math.Min(1, m.ClickProb/examine*0.5)
		}
		out = append(out, Click{Node: r.Node, Confidence: conf})
	}
	return out
}

// Nodes returns the clicked nodes of a click list.
func Nodes(clicks []Click) []graph.NodeID {
	out := make([]graph.NodeID, len(clicks))
	for i, c := range clicks {
		out[i] = c.Node
	}
	return out
}

// Confidences returns the confidence weights of a click list.
func Confidences(clicks []Click) []float64 {
	out := make([]float64, len(clicks))
	for i, c := range clicks {
		out[i] = c.Confidence
	}
	return out
}
