package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// sense: Observe(v) increments the first bucket whose inclusive upper
// bound is >= v (or the implicit +Inf bucket), plus a total count and
// a running sum. All updates are single atomic adds — there is no lock
// anywhere — so concurrent observers never contend beyond cache-line
// traffic.
//
// Buckets are chosen at registration and never change; exposition
// renders the standard name_bucket{le="..."} cumulative series plus
// name_sum and name_count.
type Histogram struct {
	// upper holds the inclusive non-infinity bucket upper bounds,
	// strictly ascending. counts has len(upper)+1 entries; the last is
	// the +Inf bucket. Each counts[i] is the NON-cumulative number of
	// observations that landed in bucket i (cumulation happens at
	// exposition time so Observe stays one add).
	upper   []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly ascending at %d (%g <= %g)", i, buckets[i], buckets[i-1]))
		}
	}
	u := append([]float64(nil), buckets...)
	return &Histogram{upper: u, counts: make([]atomic.Uint64, len(u)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s returns the first i with upper[i] >= v, which
	// is exactly Prometheus's inclusive-upper-bound bucket; values above
	// every bound land at len(upper), the +Inf bucket.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for { // float sum via CAS on the bit pattern
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the bucket upper bounds (without +Inf) and the
// CUMULATIVE count per bucket including the final +Inf bucket, i.e.
// cumulative[len(bounds)] == Count(). Counts are read bucket-by-bucket
// without a global lock; under concurrent writes the snapshot is
// monotone-consistent enough for monitoring.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.upper...)
	cumulative = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return bounds, cumulative
}

func (h *Histogram) writeSamples(b *strings.Builder, fqname, labelPrefix string) {
	// labelPrefix is either "" (unlabeled histogram: le is the only
	// label) or `name="value",...` WITHOUT braces for a vec child.
	bounds, cum := h.Snapshot()
	emit := func(le string, v uint64) {
		b.WriteString(fqname)
		b.WriteString("_bucket{")
		if labelPrefix != "" {
			b.WriteString(labelPrefix)
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(formatFloat(float64(v)))
		b.WriteByte('\n')
	}
	for i, bound := range bounds {
		emit(formatFloat(bound), cum[i])
	}
	emit("+Inf", cum[len(cum)-1])
	suffix := func(s string, v string) {
		b.WriteString(fqname)
		b.WriteString(s)
		if labelPrefix != "" {
			b.WriteByte('{')
			b.WriteString(labelPrefix)
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(v)
		b.WriteByte('\n')
	}
	suffix("_sum", formatFloat(h.Sum()))
	suffix("_count", formatFloat(float64(h.Count())))
}

// HistogramVec is a histogram family partitioned by label values; all
// children share one bucket layout.
type HistogramVec struct {
	vec     vec
	buckets []float64
}

// With returns the histogram for the given label values, creating it
// on first use.
func (hv *HistogramVec) With(values ...string) *Histogram {
	return hv.vec.child(values, func() any { return newHistogram(hv.buckets) }).(*Histogram)
}

// emit walks children in sorted order handing each to the family
// writer.
func (hv *HistogramVec) emit(fn func(labels string, h *Histogram)) {
	for _, k := range hv.vec.sortedKeys() {
		hv.vec.mu.RLock()
		h := hv.vec.kids[k].(*Histogram)
		hv.vec.mu.RUnlock()
		fn(hv.labelPairs(k), h)
	}
}

// labelPairs renders `name="value",...` (no braces) for a child key.
func (hv *HistogramVec) labelPairs(key string) string {
	values := strings.Split(key, labelSep)
	var b strings.Builder
	for i, name := range hv.vec.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// histogramFamily renders one or many histograms under a family name.
type histogramFamily struct {
	fqname   string
	helpText string
	// hist hands every (labelPairs, histogram) child to its callback.
	hist func(emit func(labels string, h *Histogram))
}

func (f *histogramFamily) name() string { return f.fqname }
func (f *histogramFamily) help() string { return f.helpText }
func (f *histogramFamily) kind() string { return "histogram" }
func (f *histogramFamily) write(b *strings.Builder) {
	f.hist(func(labels string, h *Histogram) {
		h.writeSamples(b, f.fqname, labels)
	})
}

// ---- bucket layouts ----

// ExponentialBuckets returns n buckets starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans request latencies from 100µs to ~13s —
// wide enough for a cache hit (microseconds) and a cold DBLP-scale
// solve (tens of milliseconds to seconds) to land in distinct buckets.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 13}
}

// IterationBuckets spans power-iteration counts from 1 to the paper's
// MaxIters default of 200: warm-started solves cluster in the low
// buckets (the §6.2 effect /metrics is meant to surface), cold solves
// higher.
func IterationBuckets() []float64 {
	return []float64{1, 2, 3, 5, 8, 12, 18, 27, 40, 60, 90, 135, 200}
}
