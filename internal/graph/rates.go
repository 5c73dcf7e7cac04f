package graph

import (
	"fmt"
	"math"
	"strings"
)

// Rates holds the authority transfer rates of an authority transfer
// schema graph G^A: one rate alpha(e) per transfer edge type. In the
// original ObjectRank the rates were assigned manually by a domain
// expert; the reformulation machinery of the paper (Section 5.2)
// adjusts them automatically from user feedback, which is why Rates is
// a standalone, copyable value rather than being baked into the graph.
type Rates struct {
	schema *Schema
	alpha  []float64 // indexed by TransferTypeID
}

// NewRates returns a rate vector for the given schema with every
// transfer rate set to zero.
func NewRates(s *Schema) *Rates {
	return &Rates{schema: s, alpha: make([]float64, s.NumTransferTypes())}
}

// UniformRates returns a rate vector with every transfer rate set to r.
// The paper's training experiments (Section 6.1.1) initialize all rates
// to 0.3.
func UniformRates(s *Schema, r float64) *Rates {
	rates := NewRates(s)
	for i := range rates.alpha {
		rates.alpha[i] = r
	}
	return rates
}

// Schema returns the schema the rates are defined over.
func (r *Rates) Schema() *Schema { return r.schema }

// Rate returns alpha(t), the authority transfer rate of transfer type t.
func (r *Rates) Rate(t TransferTypeID) float64 { return r.alpha[t] }

// SetRate sets alpha(t). Rates must be non-negative; the paper further
// requires the outgoing rates of every schema node to sum to at most 1
// for convergence, which NormalizeOutgoing enforces.
func (r *Rates) SetRate(t TransferTypeID, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("graph: invalid transfer rate %v for %s", v, r.schema.TransferTypeName(t))
	}
	r.alpha[t] = v
	return nil
}

// Set assigns the rate of the transfer type identified by a schema edge
// type and direction.
func (r *Rates) Set(e EdgeTypeID, dir Direction, v float64) error {
	return r.SetRate(TransferType(e, dir), v)
}

// Clone returns a deep copy. Reformulation works on clones so the rates
// of the previous feedback iteration stay available.
func (r *Rates) Clone() *Rates {
	cp := NewRates(r.schema)
	copy(cp.alpha, r.alpha)
	return cp
}

// Vector returns a copy of the underlying rate vector, indexed by
// TransferTypeID. Used for cosine-similarity training curves
// (Figures 11 and 13 of the paper).
func (r *Rates) Vector() []float64 {
	out := make([]float64, len(r.alpha))
	copy(out, r.alpha)
	return out
}

// SetVector overwrites all rates from a vector indexed by
// TransferTypeID.
func (r *Rates) SetVector(v []float64) error {
	if len(v) != len(r.alpha) {
		return fmt.Errorf("graph: rate vector has %d entries, schema has %d transfer types", len(v), len(r.alpha))
	}
	for i, x := range v {
		if err := r.SetRate(TransferTypeID(i), x); err != nil {
			return err
		}
	}
	return nil
}

// OutgoingSum returns the sum of transfer rates leaving schema node t,
// i.e. the total fraction of authority node instances of t pass to
// their neighbors per step.
func (r *Rates) OutgoingSum(t TypeID) float64 {
	sum := 0.0
	for _, tt := range r.schema.TransferTypesFrom(t) {
		sum += r.alpha[tt]
	}
	return sum
}

// NormalizeOutgoing rescales, for every schema node whose outgoing
// transfer rates sum to more than 1, all of that node's outgoing rates
// proportionally so the sum becomes exactly 1. This is step 4 of the
// structure-based reformulation normalization (Section 5.2) and the
// convergence condition of ObjectRank2.
func (r *Rates) NormalizeOutgoing() {
	for t := TypeID(0); int(t) < r.schema.NumNodeTypes(); t++ {
		sum := r.OutgoingSum(t)
		if sum <= 1 {
			continue
		}
		for _, tt := range r.schema.TransferTypesFrom(t) {
			r.alpha[tt] /= sum
		}
	}
}

// Validate reports an error if any schema node's outgoing rates sum to
// more than 1 (beyond floating-point slack) or any rate is negative.
func (r *Rates) Validate() error {
	for i, a := range r.alpha {
		if a < 0 {
			return fmt.Errorf("graph: negative rate for %s", r.schema.TransferTypeName(TransferTypeID(i)))
		}
	}
	const slack = 1e-9
	for t := TypeID(0); int(t) < r.schema.NumNodeTypes(); t++ {
		if sum := r.OutgoingSum(t); sum > 1+slack {
			return fmt.Errorf("graph: outgoing rates of %s sum to %.6f > 1", r.schema.TypeName(t), sum)
		}
	}
	return nil
}

// RateVectorKey returns a 64-bit FNV-1a fingerprint of a rate vector's
// exact float64 bit patterns (so +0 and -0 differ). Two vectors with
// equal fingerprints are, for cache-keying purposes, the same rate
// assignment (collisions over the handful of schema transfer types are
// astronomically unlikely). The serving cache keys term vectors and
// results by this fingerprint rather than by the engine's snapshot
// version, so republishing value-identical rates — a reformulation
// round-trip that lands back on the same assignment — keeps previously
// cached entries valid.
func RateVectorKey(v []float64) uint64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for _, x := range v {
		bits := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// String renders the rates as "Paper-cites->Paper:0.70 ...", one entry
// per transfer type with a non-zero rate.
func (r *Rates) String() string {
	var b strings.Builder
	first := true
	for i, a := range r.alpha {
		if a == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%s:%.2f", r.schema.TransferTypeName(TransferTypeID(i)), a)
	}
	return b.String()
}
