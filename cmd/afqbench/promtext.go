package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSamples holds one scrape of a Prometheus text exposition, keyed
// by the sample as written: name plus its label set, if any, e.g.
// `afq_http_requests_total{handler="/v1/query",code="200"}`.
type promSamples map[string]float64

// parsePromText reads the text exposition format as afqserver and
// afqrouter write it: comment lines, and `name{labels} value` lines
// with no timestamps. A malformed line is an error, because a silently
// skipped counter would read as a delta of zero.
func parsePromText(text string) (promSamples, error) {
	out := make(promSamples)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces;
		// label values may themselves hold spaces.
		end := strings.LastIndexByte(line, '}')
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || sp < end {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value in %q", n, line)
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// delta returns after − before, sample by sample. A sample absent
// before counts from zero (a labelled child appears on first use).
func (after promSamples) delta(before promSamples) promSamples {
	out := make(promSamples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// family sums every sample of the named family, across label sets.
func (s promSamples) family(name string) float64 {
	sum := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}
