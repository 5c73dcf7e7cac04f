package main

import "testing"

func setOf(q1, med, q3 float64) *resultSet {
	return &resultSet{Schema: setSchema, Workloads: map[string]*workloadSet{
		wlHotZipf: {EndToEnd: map[string]summary{
			"query_p50_ms": {Unit: "ms", N: 10, Median: med, Q1: q1, Q3: q3},
		}},
	}}
}

func TestCompareVerdicts(t *testing.T) {
	old := setOf(0.98, 1.00, 1.02)
	for _, c := range []struct {
		name string
		new  *resultSet
		want string
	}{
		{"same", setOf(0.99, 1.01, 1.03), verdictOK},
		{"better", setOf(0.60, 0.62, 0.64), verdictOK},
		{"inside the bound", setOf(1.07, 1.09, 1.10), verdictOK},
		{"beyond the bound", setOf(1.10, 1.12, 1.14), verdictRegress},
		{"too noisy to tell", setOf(1.0, 1.5, 2.0), verdictUnresolved},
	} {
		rows, err := compareSets(old, c.new)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var row *comparison
		for i := range rows {
			if rows[i].Metric == "query_p50_ms" {
				row = &rows[i]
			}
		}
		if row == nil {
			t.Fatalf("%s: no query_p50_ms row in %+v", c.name, rows)
		}
		if row.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, row.Verdict, c.want, *row)
		}
		if !near(row.Ratio, row.New/row.Old) || row.Old != 1.00 {
			t.Errorf("%s: ratio %v is not new/old with base %v", c.name, row.Ratio, row.Old)
		}
	}
}

func TestCompareErrorRatio(t *testing.T) {
	old, new := setOf(1, 1, 1), setOf(1, 1, 1)
	new.Workloads[wlHotZipf].ErrorRatio = 0.0005
	rows, err := compareSets(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if last := rows[len(rows)-1]; last.Metric != "error_ratio" || last.Verdict != verdictOK {
		t.Errorf("0.0005 more failures: %+v, want ok", last)
	}
	new.Workloads[wlHotZipf].ErrorRatio = 0.002
	rows, _ = compareSets(old, new)
	if last := rows[len(rows)-1]; last.Verdict != verdictRegress {
		t.Errorf("0.002 more failures: %+v, want regress", last)
	}
	if _, err := compareSets(old, &resultSet{Workloads: map[string]*workloadSet{}}); err == nil {
		t.Error("sets without a common pair compared")
	}
}

func TestVerdictHigherIsBetter(t *testing.T) {
	if got := verdict("higher", 100, 89, 0.01); got != verdictRegress {
		t.Errorf("a drop of 11 %% = %s, want regress", got)
	}
	if got := verdict("higher", 100, 95, 0.01); got != verdictOK {
		t.Errorf("a drop of 5 %% = %s, want ok", got)
	}
}
