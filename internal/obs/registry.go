// Package obs is the observability subsystem of the serving stack: a
// stdlib-only metrics registry with Prometheus text exposition,
// lightweight per-request tracing with structured JSON access and
// slow-query logs, and the HTTP middleware that ties both to the
// server's handlers.
//
// Design constraints, in order:
//
//  1. No dependencies beyond the standard library. The exposition
//     format is the stable Prometheus text format (version 0.0.4),
//     which any Prometheus-compatible scraper ingests.
//  2. Zero coordination on the hot path. Counters, gauges and
//     histogram buckets are single atomic adds; label lookups in the
//     vec types take a read lock only (write lock once per new label
//     combination). Nothing on the serving path allocates after the
//     first request per label set.
//  3. Nil-safety. A nil *Trace, *Logger, or observer func is a no-op,
//     so call sites never need "is observability on?" branches.
//
// The package deliberately implements the small subset of the
// Prometheus data model the server needs — counters, gauges (direct
// and func-backed), and fixed-bucket cumulative histograms, each
// optionally with one or two labels — not a general client library.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named metric families and renders them in
// Prometheus text exposition format. All methods are safe for
// concurrent use; registration is expected at startup (it takes a
// lock), metric updates are lock-free.
type Registry struct {
	mu         sync.Mutex
	names      map[string]struct{}
	families   []family
	collectors []func()
}

// family is one named metric family in the exposition output.
type family interface {
	name() string
	help() string
	kind() string // "counter", "gauge", "histogram"
	write(b *strings.Builder)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// register adds a family, panicking on duplicate or invalid names —
// metric registration happens at process start, and a bad name is a
// programming error no operator should discover at scrape time.
func (r *Registry) register(f family) {
	if !validName(f.name()) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name()))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[f.name()]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name()))
	}
	r.names[f.name()] = struct{}{}
	r.families = append(r.families, f)
}

// OnGather registers fn to run before every exposition pass. Use it to
// refresh gauges whose source of truth lives elsewhere (for example
// cache byte totals): because the SAME underlying counters feed both
// the collector and any JSON stats endpoint, the two views cannot
// drift.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// NewCounter registers and returns a monotonically increasing counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&scalarFamily{fqname: name, helpText: help, kindText: "counter", value: c.Value})
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at
// exposition time. fn must be monotonically non-decreasing (it
// typically reads an existing atomic counter owned by another
// subsystem).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&scalarFamily{fqname: name, helpText: help, kindText: "counter", value: fn})
}

// NewGauge registers and returns a settable gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&scalarFamily{fqname: name, helpText: help, kindText: "gauge", value: g.Value})
	return g
}

// NewGaugeFunc registers a gauge whose value is read from fn at
// exposition time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&scalarFamily{fqname: name, helpText: help, kindText: "gauge", value: fn})
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{vec: newVec(name, labels)}
	r.register(&vecFamily{fqname: name, helpText: help, kindText: "counter", vec: &v.vec, samples: v.writeSamples})
	return v
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{vec: newVec(name, labels)}
	r.register(&vecFamily{fqname: name, helpText: help, kindText: "gauge", vec: &v.vec, samples: v.writeSamples})
	return v
}

// NewHistogram registers a fixed-bucket histogram. buckets are the
// inclusive upper bounds of the non-infinity buckets, strictly
// ascending; the +Inf bucket is implicit.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&histogramFamily{fqname: name, helpText: help, hist: func(emit func(labels string, h *Histogram)) {
		emit("", h)
	}})
	return h
}

// NewHistogramVec registers a histogram family with the given label
// names; every child shares the same bucket layout.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{vec: newVec(name, labels), buckets: append([]float64(nil), buckets...)}
	r.register(&histogramFamily{fqname: name, helpText: help, hist: v.emit})
	return v
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), running OnGather collectors
// first. Families appear in registration order; labeled samples within
// a family are sorted by label value for deterministic output.
func (r *Registry) WritePrometheus(w interface{ Write([]byte) (int, error) }) error {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	families := append([]family{}, r.families...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	var b strings.Builder
	for _, f := range families {
		b.WriteString("# HELP ")
		b.WriteString(f.name())
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help()))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name())
		b.WriteByte(' ')
		b.WriteString(f.kind())
		b.WriteByte('\n')
		f.write(&b)
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// Handler returns the /metrics HTTP handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ---- scalar metrics ----

// Counter is a monotonically increasing counter. The zero value is
// ready to use (but only registry-created counters are exported).
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Count returns the current value as an integer.
func (c *Counter) Count() uint64 { return c.v.Load() }

// Value returns the current value as a float (the exposition type).
func (c *Counter) Value() float64 { return float64(c.v.Load()) }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// scalarFamily renders one unlabeled sample whose value comes from a
// closure (a Counter/Gauge method value or a user func).
type scalarFamily struct {
	fqname   string
	helpText string
	kindText string
	value    func() float64
}

func (f *scalarFamily) name() string { return f.fqname }
func (f *scalarFamily) help() string { return f.helpText }
func (f *scalarFamily) kind() string { return f.kindText }
func (f *scalarFamily) write(b *strings.Builder) {
	b.WriteString(f.fqname)
	b.WriteByte(' ')
	b.WriteString(formatFloat(f.value()))
	b.WriteByte('\n')
}

// ---- labeled metrics ----

// vec is the shared child-management core of CounterVec and
// HistogramVec: a map from joined label values to a child, guarded by
// an RWMutex (read-locked on the hot path, write-locked once per new
// label combination).
type vec struct {
	fqname string
	labels []string
	mu     sync.RWMutex
	kids   map[string]any
}

func newVec(name string, labels []string) vec {
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	return vec{fqname: name, labels: append([]string(nil), labels...), kids: make(map[string]any)}
}

const labelSep = "\x00"

func (v *vec) key(values []string) string {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", v.fqname, len(v.labels), len(values)))
	}
	return strings.Join(values, labelSep)
}

// child returns the child for the label values, creating it with mk on
// first use.
func (v *vec) child(values []string, mk func() any) any {
	k := v.key(values)
	v.mu.RLock()
	c, ok := v.kids[k]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[k]; ok {
		return c
	}
	c = mk()
	v.kids[k] = c
	return c
}

// sortedKeys snapshots the child keys in sorted order for
// deterministic exposition.
func (v *vec) sortedKeys() []string {
	v.mu.RLock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// labelString renders {name="value",...} for a joined key, with an
// optional extra pair (the histogram "le" label) appended.
func (v *vec) labelString(key string, extraName, extraValue string) string {
	var b strings.Builder
	b.WriteByte('{')
	if key != "" || len(v.labels) > 0 {
		values := strings.Split(key, labelSep)
		for i, name := range v.labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
	}
	if extraName != "" {
		if len(v.labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	vec vec
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the label names.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.vec.child(values, func() any { return &Counter{} }).(*Counter)
}

// Each calls fn for every child with its label values and count, in
// sorted label order — the accessor JSON stats endpoints use so they
// report the exact numbers /metrics exposes.
func (cv *CounterVec) Each(fn func(labelValues []string, count uint64)) {
	for _, k := range cv.vec.sortedKeys() {
		cv.vec.mu.RLock()
		c := cv.vec.kids[k].(*Counter)
		cv.vec.mu.RUnlock()
		fn(strings.Split(k, labelSep), c.Count())
	}
}

// Total sums all children.
func (cv *CounterVec) Total() uint64 {
	var total uint64
	cv.Each(func(_ []string, n uint64) { total += n })
	return total
}

func (cv *CounterVec) writeSamples(b *strings.Builder) {
	for _, k := range cv.vec.sortedKeys() {
		cv.vec.mu.RLock()
		c := cv.vec.kids[k].(*Counter)
		cv.vec.mu.RUnlock()
		b.WriteString(cv.vec.fqname)
		b.WriteString(cv.vec.labelString(k, "", ""))
		b.WriteByte(' ')
		b.WriteString(formatFloat(c.Value()))
		b.WriteByte('\n')
	}
}

// GaugeVec is a gauge family partitioned by label values (one child
// gauge per label combination — e.g. per-replica health in the router).
type GaugeVec struct {
	vec vec
}

// With returns the gauge for the given label values, creating it on
// first use. The number of values must match the label names.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.vec.child(values, func() any { return &Gauge{} }).(*Gauge)
}

func (gv *GaugeVec) writeSamples(b *strings.Builder) {
	for _, k := range gv.vec.sortedKeys() {
		gv.vec.mu.RLock()
		g := gv.vec.kids[k].(*Gauge)
		gv.vec.mu.RUnlock()
		b.WriteString(gv.vec.fqname)
		b.WriteString(gv.vec.labelString(k, "", ""))
		b.WriteByte(' ')
		b.WriteString(formatFloat(g.Value()))
		b.WriteByte('\n')
	}
}

// vecFamily adapts a labeled family to the family interface.
type vecFamily struct {
	fqname   string
	helpText string
	kindText string
	vec      *vec
	samples  func(b *strings.Builder)
}

func (f *vecFamily) name() string             { return f.fqname }
func (f *vecFamily) help() string             { return f.helpText }
func (f *vecFamily) kind() string             { return f.kindText }
func (f *vecFamily) write(b *strings.Builder) { f.samples(b) }

// ---- formatting helpers ----

// validName checks the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
