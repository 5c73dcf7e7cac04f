package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of unsorted input = %v, want 2.5", got)
	}
}

// The highest percentile reported is the one with at least ten samples
// beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true},
		{999, 99, false}, {1000, 99, true},
		{9999, 99.9, false}, {10000, 99.9, true},
		{19, 50, false}, {20, 50, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %t, want %t", c.n, c.p, got, c.want)
		}
	}
}

func TestSliceMedians(t *testing.T) {
	// Ten slices of one second, twelve samples each; slice i's
	// latencies centre on i+1, and slice 3 has a burst that a mean
	// would follow and a median does not.
	var ss []sample
	for i := 0; i < 10; i++ {
		for j := 0; j < 12; j++ {
			d := float64(i + 1)
			if i == 3 && j < 5 {
				d = 1000
			}
			ss = append(ss, sample{at: float64(i) + float64(j)/12, dur: d})
		}
	}
	ss = append(ss, sample{at: 10.5, dur: 1e6}) // started after the phase: ignored
	meds, n, ok := sliceMedians(ss, 10, usable(make([]float64, slices)))
	if !ok || n != 120 {
		t.Fatalf("every slice holds twelve samples: ok = %t, n = %d", ok, n)
	}
	for i, m := range meds {
		if m != float64(i+1) {
			t.Errorf("slice %d median = %v, want %d", i, m, i+1)
		}
	}
	e := estimateP50(ss, 10, nil)
	if e.Slices != 10 || !near(e.P50, 5.5) || e.Samples != 120 {
		t.Errorf("estimate = %+v, want the median of the ten slice medians 5.5 over 120 samples", e)
	}

	// Forty samples, four to a tenth: too sparse for ten slices or for
	// five, dense enough for halves. The first half's median is 1, the
	// second's 2; the quartiles of two values lie 1.5 times their
	// distance apart.
	var forty []sample
	for i := 0; i < 40; i++ {
		forty = append(forty, sample{at: float64(i) / 4, dur: float64(1 + i/20)})
	}
	e = estimateP50(forty, 10, nil)
	if e.Slices != 2 || !near(e.P50, 1.5) || e.Samples != 40 || !near(e.IQRRatio, 1) {
		t.Errorf("estimate of forty samples = %+v, want 1.5 over two halves, IQR ratio 1", e)
	}

	// A series too sparse even for halves falls back to the plain median.
	sparse := []sample{{0.5, 3}, {4, 1}, {9, 2}}
	e = estimateP50(sparse, 10, nil)
	if e.Slices != 0 || e.P50 != 2 || e.Samples != 3 || e.IQRRatio != 0 {
		t.Errorf("sparse estimate = %+v, want plain median 2", e)
	}
	if e := estimateP50(nil, 10, nil); !math.IsNaN(e.P50) || e.Samples != 0 {
		t.Errorf("empty estimate = %+v", e)
	}
}

// Slices during which the hypervisor took the CPUs away are left out,
// unless that leaves fewer than three, and every duration is taken in
// the time the machine was granted.
func TestStealFilterAndGrantedTime(t *testing.T) {
	var ss []sample
	for i := 0; i < 10; i++ {
		for j := 0; j < 12; j++ {
			ss = append(ss, sample{at: float64(i) + float64(j)/12, dur: float64(i + 1)})
		}
	}
	steal := []float64{0, 0, 0, 0, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	e := estimateP50(ss, 10, steal)
	if e.Slices != 10 || !near(e.P50, 2.5) || e.Samples != 48 {
		t.Errorf("estimate over the four quiet slices = %+v, want 2.5 over 48 samples", e)
	}
	if got := quietSlices(steal); got != 4 {
		t.Errorf("quietSlices = %d, want 4", got)
	}

	sparse := []sample{{0.5, 3}, {4.5, 100}, {9, 2}}
	steal = []float64{0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0}
	if e := estimateP50(sparse, 10, steal); e.P50 != 2.5 || e.Samples != 2 {
		t.Errorf("sparse estimate = %+v, want the median 2.5 of the two samples in quiet slices", e)
	}

	// Loud throughout: every slice counts, each in granted time. Slice
	// i's samples last (i+1) ÷ 0.6 of wall time under 40 % steal.
	var loud []sample
	for _, s := range ss {
		loud = append(loud, sample{at: s.at, dur: s.dur / 0.6})
	}
	steal = []float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4}
	if e := estimateP50(loud, 10, steal); !near(e.P50, 5.5) || e.Samples != 120 {
		t.Errorf("under uniform 40 %% steal: %+v, want the undisturbed 5.5 over 120 samples", e)
	}
	// A little steal below the line is corrected too, not dropped.
	steal = []float64{0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02}
	if e := estimateP50(ss, 10, steal); !near(e.P50, 5.5*0.98) || e.Samples != 120 {
		t.Errorf("under 2 %% steal: %+v, want 5.39 over 120 samples", e)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance check of the benchmark uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{0.30, 0.31, 0.33, 0.36, 0.30, 0.34, 0.35, 0.32, 0.33, 0.31}, 0.3075, 0.3425},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrRatio([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrRatio = %v, want 1", got)
	}
}

// The noise guard reads the densest series the workload gates: on
// session_feedback that is not the plain queries.
func TestGuardIQR(t *testing.T) {
	var ops [numKinds][]sample
	for i := 0; i < 12; i++ { // too sparse for halves of ten
		ops[opQuery] = append(ops[opQuery], sample{at: float64(i) * 10 / 12, dur: 1})
	}
	for i := 0; i < 40; i++ { // first half 1, second half 2
		ops[opReformulate] = append(ops[opReformulate], sample{at: float64(i) / 4, dur: float64(1 + i/20)})
	}
	for i := 0; i < 1000; i++ { // dense and flat, but not a session's operation
		ops[opBatch] = append(ops[opBatch], sample{at: float64(i) / 100, dur: 1})
	}
	if got := guardIQR(wlSessionFeedback, ops, 10, nil); !near(got, 1) {
		t.Errorf("session_feedback guard = %v, want the reformulations' 1", got)
	}
	if got := guardIQR(wlHotZipf, ops, 10, nil); got != 0 {
		t.Errorf("hot_zipf guard = %v, want 0: its only series is too sparse to slice", got)
	}
}
