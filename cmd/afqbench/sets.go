package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setSchema names the layout of a result-set file.
const setSchema = "afqbench/1"

// The noise guard: an untraced run whose slice medians (guardIQR) have an
// interquartile range above noisyIQR of their median, or during which
// the hypervisor took the CPUs away in more than half the slices, was
// disturbed by something else on the host. In a set such a run is marked
// noisy and run again, at most maxRetries times; every attempt is kept
// in the file and the last one counts.
const (
	noisyIQR   = 0.10
	maxRetries = 2
)

// stamp says where and how a set was measured.
type stamp struct {
	Started   string   `json:"started"`
	NProc     int      `json:"nproc"`
	CPUModel  string   `json:"cpu_model"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Commit    string   `json:"commit"`
	Flags     []string `json:"flags"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Runs      int      `json:"runs"`
	Clients   int      `json:"clients"`
	Scale     float64  `json:"scale"`
}

func newStamp(cfg config, runs int) stamp {
	st := stamp{
		Started: time.Now().UTC().Format(time.RFC3339),
		NProc:   runtime.NumCPU(), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", Flags: os.Args[1:],
		Seed: cfg.seed, Seconds: cfg.seconds, Runs: runs, Clients: cfg.clients, Scale: cfg.scale,
	}
	// Outside a git checkout (the driver's, for one) the commit stays
	// unknown. A tree with uncommitted changes is HEAD and then some.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			st.Commit += "+uncommitted"
		}
	}
	return st
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}

// runRecord is one attempt of one run, as a set keeps it.
type runRecord struct {
	Seed        int64             `json:"seed"`
	Attempt     int               `json:"attempt"`
	Noisy       bool              `json:"noisy"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Samples     map[string]int    `json:"samples,omitempty"`
	SliceIQR    float64           `json:"slice_iqr_ratio"`
	Steal       float64           `json:"steal_share"`
	QuietSlices int               `json:"quiet_slices"`
	Notes       []string          `json:"notes,omitempty"`
}

// recordOf keeps what the run measured: the latencies it filled in for
// the driver (result.Filled) are left out.
func recordOf(r *result, attempt int) runRecord {
	rec := runRecord{
		Seed: r.Seed, Attempt: attempt, Correct: r.Correct,
		Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metric), Samples: make(map[string]int),
		SliceIQR: r.SliceIQR, Steal: r.Steal, QuietSlices: r.QuietSlices, Notes: r.Notes,
	}
	for n, m := range r.Metrics {
		if !r.Filled[n] {
			rec.Metrics[n] = m
			if c, ok := r.Samples[n]; ok {
				rec.Samples[n] = c
			}
		}
	}
	return rec
}

// summary is one end-to-end metric over the counted runs of a set.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// spread is the distance between the quartiles over the median.
func (s summary) spread() float64 {
	if s.Median == 0 || s.N < 2 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// workloadSet is everything a set holds about one workload.
type workloadSet struct {
	// Runs lists every untraced attempt, noisy ones included.
	Runs []runRecord `json:"runs"`
	// EndToEnd summarises the counted attempts, the last of each seed,
	// for the metrics the workload has (see reports).
	EndToEnd map[string]summary `json:"end_to_end"`
	// ErrorRatio is failed ÷ attempted operations over the counted runs.
	ErrorRatio float64 `json:"error_ratio"`
	// Traced is the traced run with its per-layer metrics.
	Traced *runRecord `json:"traced,omitempty"`
}

// resultSet is the one schema every recorded baseline uses.
type resultSet struct {
	Schema    string                  `json:"schema"`
	Stamp     stamp                   `json:"stamp"`
	Workloads map[string]*workloadSet `json:"workloads"`
	// Claim is what the set claims to have gained over another. The
	// benchmark claims nothing: it only measures.
	Claim *string `json:"claim"`
}

// setMain runs every workload setRuns times untraced, on consecutive
// seeds, and once traced, and writes the set.
func setMain(cfg config, out string) error {
	runs := setRuns
	if out == "" {
		out = filepath.Join(cfg.outDir, "results.json")
	}
	set := &resultSet{Schema: setSchema, Stamp: newStamp(cfg, runs), Workloads: make(map[string]*workloadSet)}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	incorrect := 0
	for _, wl := range names {
		ws := &workloadSet{EndToEnd: make(map[string]summary)}
		set.Workloads[wl] = ws
		values := make(map[string][]float64)
		attempted, failed := 0, 0
		for i := 0; i < runs; i++ {
			c := cfg
			c.workload, c.seed, c.trace = wl, cfg.seed+int64(i), false
			var counted runRecord
			for attempt := 0; attempt <= maxRetries; attempt++ {
				r, err := runOnce(c)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, c.seed, err)
				}
				rec := recordOf(r, attempt)
				rec.Noisy = r.SliceIQR > noisyIQR || r.QuietSlices < slices/2
				ws.Runs = append(ws.Runs, rec)
				counted = rec
				fmt.Fprintf(logw, "afqbench: %s seed %d attempt %d: query_p50_ms=%.4g setup_s=%.3g slice_iqr=%.3f steal=%.3f quiet=%d/%d noisy=%t correct=%t\n",
					wl, c.seed, attempt, r.Metrics["query_p50_ms"].Value,
					r.Metrics["setup_s"].Value, r.SliceIQR, r.Steal, r.QuietSlices, slices, rec.Noisy, r.Correct)
				if !rec.Noisy {
					break
				}
			}
			for n, m := range counted.Metrics {
				values[n] = append(values[n], m.Value)
			}
			attempted += counted.Attempted
			failed += counted.Failed
			if !counted.Correct {
				incorrect++
			}
		}
		for _, d := range endToEnd {
			if !reports(wl, d.Name) {
				continue
			}
			v := values[d.Name]
			q1, q3 := quartiles(v)
			ws.EndToEnd[d.Name] = summary{Unit: d.Unit, N: len(v), Median: median(v), Q1: q1, Q3: q3}
		}
		ws.ErrorRatio = ratio(float64(failed), float64(attempted))

		c := cfg
		c.workload, c.trace = wl, true
		r, err := runOnce(c)
		if err != nil {
			return fmt.Errorf("%s traced: %w", wl, err)
		}
		rec := recordOf(r, 0)
		ws.Traced = &rec
		if !r.Correct {
			incorrect++
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	printSet(set)
	fmt.Fprintf(logw, "afqbench: set written to %s\n", out)
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) were not correct; see the notes in %s", incorrect, out)
	}
	return nil
}

// printSet prints every metric of the set by name with its unit, and
// ends, like the file, by claiming nothing.
func printSet(set *resultSet) {
	for _, wl := range workloadNames {
		ws := set.Workloads[wl]
		if ws == nil {
			continue
		}
		fmt.Printf("== %s (%d runs)\n", wl, ws.EndToEnd["setup_s"].N)
		for _, d := range endToEnd {
			if s, ok := ws.EndToEnd[d.Name]; ok {
				fmt.Printf("%-34s %14.6g %-6s q1=%.6g q3=%.6g spread=%.3f bound=%.2f\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.spread(), regressBound)
			}
		}
		fmt.Printf("%-34s %14.6g %-6s\n", "error_ratio", ws.ErrorRatio, "ratio")
		if ws.Traced != nil {
			for _, d := range perLayer {
				fmt.Printf("%-34s %14.6g %s\n", d.Name, ws.Traced.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	fmt.Println(`"claim": null`)
}
