// Package cmd_test builds the CLI and server binaries once and drives
// them end to end: dataset generation, snapshot reloading, querying,
// explanation with DOT/JSON export, feedback reformulation with rate
// persistence, and experiment regeneration.
package cmd_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"authorityflow/internal/datagen"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "afq-bin")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"afq", "datagen", "experiments", "afqserver", "afqrouter"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = mustSelfDir()
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// mustSelfDir returns the cmd/ directory this test file lives in.
func mustSelfDir() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return wd
}

func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", tool, args, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	tmp := t.TempDir()
	snapshot := filepath.Join(tmp, "ds.snap")

	// 1. Generate a snapshot.
	out := run(t, "datagen", "-dataset", "dblptop", "-scale", "0.03", "-out", snapshot)
	if !strings.Contains(out, "nodes") {
		t.Fatalf("datagen output: %s", out)
	}
	if _, err := os.Stat(snapshot); err != nil {
		t.Fatal(err)
	}

	// 2. Query the snapshot.
	out = run(t, "afq", "-snap", snapshot, "-k", "3", "query", "olap")
	if !strings.Contains(out, "base set") || !strings.Contains(out, "1.") {
		t.Fatalf("query output: %s", out)
	}

	// Extract the first result's node id (format: " 1. 0.0123  Paper[42] ...").
	nodeID := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Paper[") {
			start := strings.Index(line, "Paper[") + len("Paper[")
			end := strings.Index(line[start:], "]")
			nodeID = line[start : start+end]
			break
		}
	}
	if nodeID == "" {
		t.Fatalf("no paper result to explain in: %s", out)
	}

	// 3. Explain it, exporting DOT and JSON.
	dot := filepath.Join(tmp, "explain.dot")
	js := filepath.Join(tmp, "explain.json")
	out = run(t, "afq", "-snap", snapshot, "-dot", dot, "-json", js, "explain", "olap", nodeID)
	if !strings.Contains(out, "subgraph:") {
		t.Fatalf("explain output: %s", out)
	}
	dotBytes, err := os.ReadFile(dot)
	if err != nil || !strings.HasPrefix(string(dotBytes), "digraph") {
		t.Fatalf("bad DOT file: %v %q", err, truncate(string(dotBytes), 40))
	}
	var parsed map[string]any
	jsBytes, err := os.ReadFile(js)
	if err != nil || json.Unmarshal(jsBytes, &parsed) != nil {
		t.Fatalf("bad JSON export: %v", err)
	}

	// 4. Feedback with rate persistence.
	rates := filepath.Join(tmp, "rates.json")
	out = run(t, "afq", "-snap", snapshot, "-saverates", rates, "feedback", "olap", nodeID)
	if !strings.Contains(out, "reformulated rates") {
		t.Fatalf("feedback output: %s", out)
	}
	if _, err := os.Stat(rates); err != nil {
		t.Fatal("rates file not written")
	}
	// Reload the trained rates for a fresh query.
	out = run(t, "afq", "-snap", snapshot, "-loadrates", rates, "-k", "2", "query", "olap")
	if !strings.Contains(out, "base set") {
		t.Fatalf("query with loaded rates: %s", out)
	}

	// 5. Regenerate a paper table.
	out = run(t, "experiments", "-run", "table1", "-scale", "0.02")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "DBLPtop") {
		t.Fatalf("experiments output: %s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	// Unknown dataset.
	out := runExpectError(t, "datagen", "-dataset", "bogus", "-out", filepath.Join(t.TempDir(), "x.snap"))
	if !strings.Contains(out, "unknown dataset") {
		t.Errorf("datagen error output: %s", out)
	}
	// Missing -out.
	runExpectError(t, "datagen", "-dataset", "dblptop")
	// A missing or unknown subcommand and a removed flag or subcommand
	// all exit 2 with the usage, which lists every subcommand that
	// exists and none that does not.
	for _, args := range [][]string{
		{},
		{"-gen", "dblptop", "-scale", "0.01", "frobnicate", "x"},
		{"-gen", "dblptop", "-scale", "0.01", "compare", "olap", "1", "2"},
		{"-store", "x.store", "query", "olap"},
	} {
		out, err := exec.Command(filepath.Join(binDir, "afq"), args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("afq %v: %v, want exit status 2:\n%s", args, err, out)
		}
		for _, sub := range []string{"query", "explain", "feedback", "snapshot"} {
			if !strings.Contains(string(out), "\n  "+sub+" <") {
				t.Errorf("afq %v: usage omits %q:\n%s", args, sub, out)
			}
		}
		if strings.Contains(string(out), "\n  compare <") {
			t.Errorf("afq %v: usage still lists compare:\n%s", args, out)
		}
	}
	// Unknown experiment.
	runExpectError(t, "experiments", "-run", "figure99")
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func TestCLITSVImport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	tmp := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(tmp, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	schema := write("schema.json", `{
  "nodeTypes": ["Paper"],
  "edgeTypes": [{"role": "cites", "from": "Paper", "to": "Paper"}],
  "rates": {"Paper-cites->Paper": 0.7}
}`)
	nodes := write("nodes.tsv", "p1\tPaper\tTitle=olap survey\np2\tPaper\tTitle=foundations\n")
	edges := write("edges.tsv", "p1\tp2\tcites\n")

	out := run(t, "afq", "-schema", schema, "-nodes", nodes, "-edges", edges, "-k", "2", "query", "olap")
	if !strings.Contains(out, "foundations") {
		t.Fatalf("imported graph did not rank the cited paper:\n%s", out)
	}
}

// TestFlagSurface pins the flags of the CLI and the two serving
// binaries: every flag is a configuration operators, tests and
// benchmarks must cover, so adding one has to edit this list (and say
// which workload needs it).
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("runs binaries")
	}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)
	for tool, want := range map[string]string{
		"afq":       "dot edges gen html json k loadrates mode nodes paths saverates scale schema snap",
		"afqserver": "access-log addr basis-size cache-mb gen max-inflight pprof profile-dir query-timeout queue-wait scale slow-query-ms snapshot swap-dir",
		"afqrouter": "access-log addr health-interval replicas retries slow-request-ms timeout",
	} {
		// -h prints the defaults in lexical order and exits 0.
		out, err := exec.Command(filepath.Join(binDir, tool), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", tool, err, out)
		}
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(string(out), -1) {
			got = append(got, m[1])
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s has %d flags:\n  %s\nwant %d:\n  %s", tool,
				len(got), strings.Join(got, " "), len(strings.Fields(want)), want)
		}
	}
}

// TestHelpNamesEveryPreset: the three binaries that generate a corpus
// in-process list, in -h, every preset datagen.Preset resolves — the
// list is built from datagen.PresetNames, not copied.
func TestHelpNamesEveryPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs binaries")
	}
	for _, tool := range []string{"afq", "datagen", "afqserver"} {
		out, err := exec.Command(filepath.Join(binDir, tool), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", tool, err, out)
		}
		if want := strings.Join(datagen.PresetNames(), ", "); !strings.Contains(string(out), want) {
			t.Errorf("%s -h does not list the presets %q:\n%s", tool, want, out)
		}
	}
}

// TestAfqbenchBuilds compiles and vets the benchmark against this tree.
// cmd/afqbench is a nested module (replace => ../..), so `go build
// ./... && go test ./...` at the root never sees it, yet its oracle.go
// and probe.go bind to core, cache, profile and server entry points by
// name; without this test a rename there is first noticed by a
// benchmark run.
func TestAfqbenchBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	for _, args := range [][]string{
		{"build", "-o", t.TempDir() + string(filepath.Separator), "./..."},
		{"vet", "./..."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = filepath.Join(mustSelfDir(), "afqbench")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in cmd/afqbench: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
