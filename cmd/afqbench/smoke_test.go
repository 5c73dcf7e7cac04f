package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end against real afqserver and
// afqrouter binaries, untraced and traced, on a corpus a twentieth of
// the benchmark's and with two-second phases. At that size a workload
// cannot stress what it claims to (a 16 MB cache holds every vector of
// a thousand-node graph), so the mechanism assertions are not held;
// every request must still succeed, every answer pass the oracle, and
// every declared metric be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real processes")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin")
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/afqserver", "./cmd/afqrouter")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the system: %v\n%s", err, out)
	}
	t.Cleanup(killAllProcs)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: wl, seed: 1, seconds: 2, trace: traced, scale: 0.05,
				binDir: bin, tmpDir: filepath.Join(tmp, "tmp"), outDir: filepath.Join(tmp, "out"),
				clients: 2, setups: 1,
			}
			r, err := runOnce(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", wl, traced, err)
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s traced=%t: %d of %d operations failed: %v", wl, traced, r.Failed, r.Attempted, r.Notes)
			}
			for _, n := range r.Notes {
				if !strings.HasPrefix(n, "mechanism: ") {
					t.Errorf("%s traced=%t: %s", wl, traced, n)
				}
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics reported, %d declared", wl, traced, len(r.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s reported as %+v (present %t), declared in %s", wl, traced, d.Name, m, ok, d.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl, d.Name, m.Value)
				}
				if !traced && r.Filled[d.Name] == reports(wl, d.Name) {
					t.Errorf("%s: %s filled in = %t, though the workload has it = %t", wl, d.Name, r.Filled[d.Name], reports(wl, d.Name))
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+wl+".json")); err != nil {
					t.Errorf("%s: no span file: %v", wl, err)
				}
			}
		}
	}
}
