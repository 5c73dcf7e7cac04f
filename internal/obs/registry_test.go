package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// expositionLines renders reg and returns the non-comment sample lines
// plus the full text (for HELP/TYPE assertions).
func expositionLines(t *testing.T, reg *Registry) (samples map[string]string, full string) {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	full = b.String()
	samples = make(map[string]string)
	for _, line := range strings.Split(full, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[line[:sp]] = line[sp+1:]
	}
	return samples, full
}

// TestExpositionParseBack registers one family of every kind, drives
// them, and parses the rendered exposition back: every line must be a
// comment or "<name-with-labels> <value>", HELP/TYPE must precede each
// family, and the parsed values must equal the in-process values.
func TestExpositionParseBack(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_ops_total", "Operations.")
	g := reg.NewGauge("test_temp", "Temperature.")
	cv := reg.NewCounterVec("test_requests_total", "Requests.", "handler", "code")
	h := reg.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	reg.NewCounterFunc("test_derived_total", "Derived.", func() float64 { return 42 })
	reg.NewGaugeFunc("test_level", "Level.", func() float64 { return -2.5 })

	for range 5 {
		c.Inc()
	}
	g.Set(36.6)
	cv.With("/query", "200").Inc()
	cv.With("/query", "200").Inc()
	cv.With("/explain", "400").Inc()
	h.Observe(0.05) // first bucket
	h.Observe(0.5)  // second
	h.Observe(100)  // +Inf only

	samples, full := expositionLines(t, reg)

	want := map[string]string{
		"test_ops_total": "5",
		"test_temp":      "36.6",
		`test_requests_total{handler="/explain",code="400"}`: "1",
		`test_requests_total{handler="/query",code="200"}`:   "2",
		`test_latency_seconds_bucket{le="0.1"}`:              "1",
		`test_latency_seconds_bucket{le="1"}`:                "2",
		`test_latency_seconds_bucket{le="10"}`:               "2",
		`test_latency_seconds_bucket{le="+Inf"}`:             "3",
		"test_latency_seconds_sum":                           "100.55",
		"test_latency_seconds_count":                         "3",
		"test_derived_total":                                 "42",
		"test_level":                                         "-2.5",
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("sample %s = %q, want %q", k, samples[k], v)
		}
	}
	for _, fam := range []struct{ name, kind string }{
		{"test_ops_total", "counter"},
		{"test_temp", "gauge"},
		{"test_requests_total", "counter"},
		{"test_latency_seconds", "histogram"},
		{"test_derived_total", "counter"},
		{"test_level", "gauge"},
	} {
		if !strings.Contains(full, "# TYPE "+fam.name+" "+fam.kind+"\n") {
			t.Errorf("missing TYPE line for %s (%s)", fam.name, fam.kind)
		}
		if !strings.Contains(full, "# HELP "+fam.name+" ") {
			t.Errorf("missing HELP line for %s", fam.name)
		}
	}
	// HELP must precede the family's first sample.
	if strings.Index(full, "# HELP test_ops_total") > strings.Index(full, "\ntest_ops_total ") {
		t.Error("HELP comment does not precede samples")
	}
}

// TestHandlerContentType checks the /metrics handler advertises the
// Prometheus text format version.
func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("test_total", "t.").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1\n") {
		t.Fatalf("body missing sample: %q", rec.Body.String())
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound
// semantics: a value exactly on a bound lands in THAT bucket, just
// above goes to the next, and cumulation is monotone with the +Inf
// bucket equal to the total count.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	h.Observe(1) // le="1" (inclusive)
	h.Observe(1.0000001)
	h.Observe(2)   // le="2" (inclusive)
	h.Observe(5)   // le="5"
	h.Observe(5.1) // +Inf
	h.Observe(-3)  // below first bound → first bucket

	bounds, cum := h.Snapshot()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("snapshot shape: %d bounds, %d cumulative", len(bounds), len(cum))
	}
	wantCum := []uint64{2, 4, 5, 6} // le=1, le=2, le=5, +Inf
	for i, w := range wantCum {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 1+1.0000001+2+5+5.1-3; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts not monotone at %d", i)
		}
	}
}

// TestHistogramAscendingPanic: non-ascending buckets are a programming
// error caught at registration.
func TestHistogramAscendingPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

// TestBucketLayouts covers the constructor and the canned layouts.
func TestBucketLayouts(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 5)
	wantExp := []float64{1, 2, 4, 8, 16}
	for i, w := range wantExp {
		if exp[i] != w {
			t.Errorf("ExponentialBuckets[%d] = %g, want %g", i, exp[i], w)
		}
	}
	for _, layout := range [][]float64{DefaultLatencyBuckets(), IterationBuckets()} {
		for i := 1; i < len(layout); i++ {
			if layout[i] <= layout[i-1] {
				t.Fatalf("canned layout not strictly ascending at %d", i)
			}
		}
	}
}

// TestRegistryDuplicatePanics: registering the same name twice is a
// startup programming error.
func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "a.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewGauge("dup_total", "b.")
}

// TestRegistryInvalidNamePanics rejects names outside the Prometheus
// charset.
func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().NewCounter(bad, "x.")
		}()
	}
}

// TestOnGatherRefreshesBeforeRender: collectors run before families are
// rendered, so func-backed gauges refreshed there are current.
func TestOnGatherRefreshesBeforeRender(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGauge("test_version", "v.")
	version := 0
	reg.OnGather(func() { version++; g.Set(float64(version)) })
	samples, _ := expositionLines(t, reg)
	if samples["test_version"] != "1" {
		t.Fatalf("first gather: %q", samples["test_version"])
	}
	samples, _ = expositionLines(t, reg)
	if samples["test_version"] != "2" {
		t.Fatalf("second gather: %q", samples["test_version"])
	}
}

// TestCounterVecAccessors covers Each ordering and Total, the accessors
// the /stats endpoint uses.
func TestCounterVecAccessors(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("test_total", "t.", "handler", "code")
	for range 3 {
		cv.With("/b", "200").Inc()
	}
	for range 2 {
		cv.With("/a", "500").Inc()
	}
	var got []string
	var total uint64
	cv.Each(func(labels []string, n uint64) {
		got = append(got, strings.Join(labels, " ")+" "+strconv.FormatUint(n, 10))
		total += n
	})
	want := []string{"/a 500 2", "/b 200 3"} // sorted by joined key
	if len(got) != len(want) {
		t.Fatalf("Each visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Each[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if total != 5 || cv.Total() != 5 {
		t.Errorf("total = %d, Total() = %d, want 5", total, cv.Total())
	}
}

// TestLabelEscaping: label values with quotes, backslashes and newlines
// must be escaped per the exposition format.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("test_total", "t.", "q")
	cv.With(`say "hi"\` + "\n").Inc()
	_, full := expositionLines(t, reg)
	if !strings.Contains(full, `test_total{q="say \"hi\"\\\n"} 1`) {
		t.Fatalf("escaping wrong:\n%s", full)
	}
}

// TestFormatFloat pins the special values.
func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		3:            "3",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%g) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

// TestGaugeAdd exercises the CAS path.
func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}
}
