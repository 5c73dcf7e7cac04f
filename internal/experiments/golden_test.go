package experiments

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"authorityflow/internal/ir"
)

var updatePaper = flag.Bool("update", false, "rewrite testdata/paper.golden from this run")

// shared is one experiment's run at testCfg's scale: its result and
// what it rendered.
type shared struct {
	res any
	out string
	err error
}

var (
	sharedMu   sync.Mutex
	sharedRuns = map[string]*shared{}
)

// runShared runs experiment name once per test binary, at testCfg's
// scale, and hands every later caller the same result and rendering:
// the golden and the mechanics tests read one run instead of each
// running the experiment again.
func runShared[T any](t *testing.T, name string, f func(Config) (T, error)) (T, string) {
	t.Helper()
	return runSharedAt(t, testScale, name, f)
}

// runSharedAt is runShared at the given dataset scale.
func runSharedAt[T any](t *testing.T, scale float64, name string, f func(Config) (T, error)) (T, string) {
	t.Helper()
	key := fmt.Sprintf("%s@%g", name, scale)
	sharedMu.Lock()
	s, ok := sharedRuns[key]
	if !ok {
		var buf bytes.Buffer
		res, err := f(Config{Scale: scale, Out: &buf})
		s = &shared{res: res, out: buf.String(), err: err}
		sharedRuns[key] = s
	}
	sharedMu.Unlock()
	if s.err != nil {
		t.Fatalf("%s: %v", name, s.err)
	}
	return s.res.(T), s.out
}

// TestPaperGolden renders the paper's evaluation at testCfg's scale —
// Tables 1–3, Figures 10–13, the ObjectRank2 iteration counts of
// Figures 14–17, the active and implicit feedback extensions and the
// baselines extension, each at the precision the experiment prints,
// then the baselines' fixpoint digests (baselineDigests) — and
// compares it with testdata/paper.golden; -update rewrites the file. Timings are left
// out, iteration counts are in. The golden is pinned on amd64, because
// other architectures may fuse multiply-adds and move the last digits.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("survey experiments")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("paper.golden is pinned on amd64")
	}
	var b strings.Builder
	section := func(out string) {
		b.WriteString(out)
		b.WriteString("\n")
	}
	_, out := runShared(t, "table1", Table1)
	section(out)
	_, out = runShared(t, "table2", Table2)
	section(out)
	_, out = runShared(t, "table3", Table3)
	section(out)
	for _, name := range []string{"figure10", "figure11", "figure12", "figure13"} {
		_, out = runShared(t, name, curveFigures[name])
		section(out)
	}
	for i, name := range timingFigureNames {
		res, _ := runShared(t, name, timingFigures[i])
		fmt.Fprintf(&b, "Figure %d: %s OR2-its (%d nodes, %d edges):", 14+i, res.Dataset, res.Nodes, res.Edges)
		for _, it := range res.Iters {
			fmt.Fprintf(&b, " %d", it.RankIterations)
		}
		b.WriteString("\n\n")
	}
	_, out = runShared(t, "active", ExtensionActiveFeedback)
	section(out)
	_, out = runShared(t, "implicit", ExtensionImplicitFeedback)
	section(out)
	_, out = runShared(t, "baselines", ExtensionBaselines)
	section(out)
	section(baselineDigests(t))

	golden := filepath.Join("testdata", "paper.golden")
	if *updatePaper {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("paper evaluation differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("paper evaluation has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}

// baselineDigests renders, for the Table 2 world at testScale, an
// FNV-64a digest of the float64 bits of every fixpoint the baselines
// solve besides ObjectRank2: each Table 2 query's Eq. 16 vector, each
// topic's topic-sensitive PageRank vector and the global warm-start
// vector. One flipped bit in a vector moves its digest.
func baselineDigests(t *testing.T) string {
	t.Helper()
	cfg := Config{Scale: testScale}.withDefaults(surveyScale)
	w, err := table2World(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("Fixpoint digests (FNV-64a of the float64 bits)\n")
	pin := w.sys.Pin()
	for _, raw := range table2Queries {
		r, err := objectRankBaseline(pin, ir.ParseQuery(raw))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%-28s %016x\n", "eq16 ["+raw+"]", bitsDigest(r.Scores))
	}
	ts, err := BuildTopicSensitive(pin, topicNodeSets(w.ds.Graph, w.resultType))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ts.vectors {
		fmt.Fprintf(&b, "%-28s %016x\n", fmt.Sprintf("tspr topic %d", i), bitsDigest(v))
	}
	fmt.Fprintf(&b, "%-28s %016x\n", "global warm start", bitsDigest(w.sys.GlobalRank()))
	return b.String()
}

// bitsDigest is the FNV-64a hash of v's float64 bits, little-endian.
func bitsDigest(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// curveFigures are the survey figures by shared-run name.
var curveFigures = map[string]func(Config) (*CurveResult, error){
	"figure10": Figure10, "figure11": Figure11, "figure12": Figure12, "figure13": Figure13,
}

// timingFigureNames and timingFigures are Figures 14–17 in order.
var (
	timingFigureNames = []string{"figure14", "figure15", "figure16", "figure17"}
	timingFigures     = []func(Config) (*TimingResult, error){Figure14, Figure15, Figure16, Figure17}
)
