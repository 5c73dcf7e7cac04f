package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the median of v (NaN when empty).
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// medianOrZero is the median of v, and 0 for no samples: how a layer
// that is not on a workload's path reads.
func medianOrZero(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// beyond is how many samples must lie above a percentile before it is
// reported (choosing-metrics §1: "the highest percentile that has at
// least ten samples beyond it").
const beyond = 10

// supported reports whether the p-th percentile of n samples has at
// least `beyond` samples above it.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= beyond-1e-9 // 100 × 0.1 is not quite 10 in floating point
}

// sample is one timed observation: when it started, as an offset into
// its phase, and how long it took, both in seconds.
type sample struct {
	at  float64
	dur float64
}

// minSliceSamples is the fewest samples a slice may hold for its median
// to stand for the slice.
const minSliceSamples = 10

// slices is how many equal parts a timed phase is cut into: /proc/stat
// is read at every boundary, and a dense series is summarised part by
// part.
const slices = 10

// sliceCounts are the cuts a series may be summarised over, finest
// first; each divides slices. A series takes the finest cut at which
// every slice that counts holds minSliceSamples samples: ten slices for
// the thousands of requests of hot_zipf, two for the forty explains of
// session_feedback.
var sliceCounts = [...]int{slices, 5, 2}

// maxSliceSteal is the steal share above which a slice is loud: the
// hypervisor gave that much of the slice's CPU time to someone else. A
// quiet slice on the host the benchmark was written on reads
// 0.002–0.02; the minutes during which the same code's medians read
// 40 % higher had 0.12–0.40.
const maxSliceSteal = 0.05

// minQuietShare is the share of the slices that must be quiet for the
// loud ones to be left out; with fewer the host was loud throughout and
// every slice counts, because a run must report something.
const minQuietShare = 0.3

// sliceOf returns which of k equal slices of [0, span) a sample started
// in, or -1 for one that started outside the phase.
func sliceOf(at, span float64, k int) int {
	if at < 0 || at >= span {
		return -1
	}
	return min(k-1, int(at/span*float64(k)))
}

// quietSlices counts the slices whose steal share is at most
// maxSliceSteal.
func quietSlices(steal []float64) int {
	n := 0
	for _, s := range steal {
		if s <= maxSliceSteal {
			n++
		}
	}
	return n
}

// coarsen turns the steal shares of the phase's tenths into those of k
// equal slices (k divides slices): equal stretches of time, so the mean.
func coarsen(steal []float64, k int) []float64 {
	out := make([]float64, k)
	per := len(steal) / k
	for i := range out {
		for _, s := range steal[i*per : (i+1)*per] {
			out[i] += s / float64(per)
		}
	}
	return out
}

// usable decides which slices of a phase count, from each slice's steal
// share.
func usable(steal []float64) []bool {
	use := make([]bool, len(steal))
	all := float64(quietSlices(steal)) < minQuietShare*float64(len(steal))
	for i := range use {
		use[i] = all || steal[i] <= maxSliceSteal
	}
	return use
}

// granted converts the durations of samples from wall time to the time
// the machine actually had its CPUs: a sample that started in a slice
// with steal share s counts (1 − s) of its duration. What the
// hypervisor takes away stretches everything the system does by
// 1/(1 − s), whatever the program, and a user on a host of their own
// does not see it.
func granted(samples []sample, span float64, steal []float64) []sample {
	out := make([]sample, len(samples))
	for k, s := range samples {
		out[k] = s
		if i := sliceOf(s.at, span, len(steal)); i >= 0 {
			out[k].dur *= 1 - steal[i]
		}
	}
	return out
}

// sliceMedians cuts [0, span) into len(use) slices and returns the
// median duration of the samples that started in each slice that
// counts, and how many samples those are. ok is false when any of those
// slices holds fewer than minSliceSamples samples.
func sliceMedians(samples []sample, span float64, use []bool) (meds []float64, n int, ok bool) {
	buckets := make([][]float64, len(use))
	for _, s := range samples {
		if i := sliceOf(s.at, span, len(use)); i >= 0 {
			buckets[i] = append(buckets[i], s.dur)
		}
	}
	ok = true
	for i, b := range buckets {
		if !use[i] {
			continue
		}
		if len(b) < minSliceSamples {
			ok = false
		}
		meds = append(meds, median(b))
		n += len(b)
	}
	return meds, n, ok
}

// estimate is the gated summary of one latency series.
type estimate struct {
	P50 float64 // seconds
	// Samples counts the samples the estimate rests on: those that
	// started inside the phase, in a slice that counts.
	Samples int
	// Slices is how many slices the phase was cut into: P50 is the
	// median of their medians. 0 means the series was too sparse for any
	// cut and P50 is the plain median of its samples.
	Slices int
	// IQRRatio is the interquartile range of the slice medians over
	// their median: how much the series moved during the phase.
	IQRRatio float64
}

// estimateP50 summarises samples taken over [0, span), given the steal
// share of each tenth of it (nil: none was read). Durations are taken in
// granted time. Slices during which the hypervisor took more than
// maxSliceSteal say little about the program and are left out while
// minQuietShare of them remain. Of the rest it takes the median of the
// slice medians, which keeps one disturbed second from moving the
// result, at the finest cut that is dense enough; of a series too sparse
// even for halves, the plain median.
func estimateP50(samples []sample, span float64, steal []float64) estimate {
	if steal == nil {
		steal = make([]float64, slices)
	}
	var e estimate
	for _, k := range sliceCounts {
		st := coarsen(steal, k)
		meds, n, ok := sliceMedians(granted(samples, span, st), span, usable(st))
		if ok {
			return estimate{P50: median(meds), Samples: n, Slices: k, IQRRatio: iqrRatio(meds)}
		}
	}
	use := usable(steal)
	var in []float64
	for _, s := range granted(samples, span, steal) {
		if i := sliceOf(s.at, span, slices); i >= 0 && use[i] {
			in = append(in, s.dur)
		}
	}
	e.Samples = len(in)
	e.P50 = median(in)
	return e
}

// quartiles returns the first and third quartile of v by the method of
// Python's statistics.quantiles(v, n=4) (exclusive), which is what the
// acceptance check of the benchmark uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 { // k-th of 4 cut points, 1-based
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// iqrRatio is (Q3 − Q1) ÷ median of v; 0 when the median is 0.
func iqrRatio(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}
