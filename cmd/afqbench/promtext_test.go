package main

import (
	"os"
	"testing"
)

// testdata/metrics.txt is a /metrics scrape of afqserver after three
// queries: one computed, one result hit, one computed in hub mode.
func TestParsePromText(t *testing.T) {
	b, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parsePromText(string(b))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		`afq_http_requests_total{handler="/v1/query",code="200"}`:         3,
		`afq_http_request_seconds_bucket{handler="/v1/query",le="0.001"}`: 1,
		"afq_kernel_solve_seconds_sum":                                    0.046423575,
		"afq_kernel_solve_seconds_count":                                  2,
		"afq_kernel_iterations_total":                                     42,
		"afq_cache_result_hits_total":                                     1,
		"afq_cache_vector_budget_bytes":                                   5.8720256e+07,
	} {
		if got, ok := s[name]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", name, got, ok, want)
		}
	}
	if got := s.family("afq_query_cache_outcome_total"); got != 3 {
		t.Errorf("cache outcomes sum to %v, want 3", got)
	}
	if got := s.family("afq_kernel_solves_total"); got != 2 {
		t.Errorf("afq_kernel_solves_total = %v, want 2", got)
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parsePromText("# TYPE a counter\na 5\nb{x=\"1\"} 2\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parsePromText("a 9\nb{x=\"1\"} 2\nb{x=\"2 3\"} 4\nc_sum 0.25\n")
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	// A labelled child that first appears during the phase counts
	// from zero; a label value may hold a space.
	for name, want := range map[string]float64{"a": 4, `b{x="1"}`: 0, `b{x="2 3"}`: 4, "c_sum": 0.25} {
		if d[name] != want {
			t.Errorf("delta[%s] = %v, want %v", name, d[name], want)
		}
	}
	if got := d.family("b"); got != 4 {
		t.Errorf("family b delta = %v, want 4", got)
	}
	for _, bad := range []string{"a", "a b c\n", "a{x=\"1\"}\n", "a{x=\"1 2\"}\n"} {
		if _, err := parsePromText(bad); err == nil {
			t.Errorf("parsePromText(%q) accepted a line without a value", bad)
		}
	}
}
