package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegress    = "regress"
	verdictUnresolved = "unresolved"
)

// errorRatioBound is how far failed ÷ attempted may rise, absolutely.
const errorRatioBound = 0.001

// comparison is one row of the -compare table.
type comparison struct {
	Workload string
	Metric   string
	Unit     string
	Old, New float64 // medians over each set's runs
	// Ratio is New ÷ Old: the base is the old set's median.
	Ratio float64
	// Spread is the wider of the two sets' own spreads: the distance
	// between the quartiles of a set's runs over their median.
	Spread  float64
	Bound   float64
	Verdict string
}

// verdict applies the benchmark's rule to one pair. A pair whose runs
// spread wider than the bound cannot be told from noise and is
// unresolved, whichever way its medians moved; otherwise it regresses
// when the new median is worse than the old by more than the bound.
func verdict(better string, old, new, spread float64) string {
	if spread > regressBound {
		return verdictUnresolved
	}
	worse := new > old*(1+regressBound)
	if better == "higher" {
		worse = new < old*(1-regressBound)
	}
	if worse {
		return verdictRegress
	}
	return verdictOK
}

// compareSets builds the table of every pair both sets hold: a workload
// has a latency only for the operations it issues.
func compareSets(old, new *resultSet) ([]comparison, error) {
	var rows []comparison
	for _, wl := range workloadNames {
		ow, nw := old.Workloads[wl], new.Workloads[wl]
		if ow == nil || nw == nil {
			continue
		}
		for _, d := range endToEnd {
			os, oOK := ow.EndToEnd[d.Name]
			ns, nOK := nw.EndToEnd[d.Name]
			if !oOK || !nOK {
				continue
			}
			if os.Median == 0 {
				return nil, fmt.Errorf("%s %s: the old set's median is 0", wl, d.Name)
			}
			spread := max(os.spread(), ns.spread())
			rows = append(rows, comparison{
				Workload: wl, Metric: d.Name, Unit: d.Unit,
				Old: os.Median, New: ns.Median, Ratio: ns.Median / os.Median,
				Spread: spread, Bound: regressBound,
				Verdict: verdict(d.Better, os.Median, ns.Median, spread),
			})
		}
		// Failures have an absolute bound: a relative one means
		// nothing against a baseline of zero.
		e := comparison{
			Workload: wl, Metric: "error_ratio", Unit: "ratio",
			Old: ow.ErrorRatio, New: nw.ErrorRatio, Bound: errorRatioBound, Verdict: verdictOK,
		}
		if ow.ErrorRatio > 0 {
			e.Ratio = nw.ErrorRatio / ow.ErrorRatio
		}
		if nw.ErrorRatio > ow.ErrorRatio+errorRatioBound {
			e.Verdict = verdictRegress
		}
		rows = append(rows, e)
	}
	if len(rows) == 0 {
		return nil, errors.New("the two sets share no (workload, metric) pair")
	}
	return rows, nil
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != setSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, setSchema)
	}
	return &s, nil
}

// errRegress makes -compare exit non-zero.
var errRegress = errors.New("at least one pair regressed")

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: afqbench -compare old.json new.json")
	}
	old, err := readSet(args[0])
	if err != nil {
		return err
	}
	new, err := readSet(args[1])
	if err != nil {
		return err
	}
	rows, err := compareSets(old, new)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  commit %s\nnew: %s  commit %s\n", args[0], old.Stamp.Commit, args[1], new.Stamp.Commit)
	fmt.Printf("%-17s %-13s %12s %12s %-5s %16s %7s %6s  %s\n",
		"workload", "metric", "old median", "new median", "unit", "new/old (base)", "spread", "bound", "verdict")
	regressed := false
	for _, r := range rows {
		fmt.Printf("%-17s %-13s %12.5g %12.5g %-5s %7.3f (%7.5g) %7.3f %6.2f  %s\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, r.Ratio, r.Old, r.Spread, r.Bound, r.Verdict)
		regressed = regressed || r.Verdict == verdictRegress
	}
	fmt.Println(strings.Repeat("-", 40))
	if regressed {
		return errRegress
	}
	return nil
}
