package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one end-to-end metric on one workload, B against A.
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares B's median with A's. worsening is the relative change in
// the direction that counts as worse; spread is the wider of the two sides'
// (max-min)/median. A metric whose own run-to-run spread exceeds its bound
// cannot be called unchanged: it is unresolved.
func judge(spec metricSpec, a, b summary) (verdict string, worsening float64) {
	worsening = ratio(b.Median-a.Median, math.Abs(a.Median))
	if spec.Better == higher {
		worsening = -worsening
	}
	spread := math.Max(ratio(a.Max-a.Min, math.Abs(a.Median)), ratio(b.Max-b.Min, math.Abs(b.Median)))
	switch {
	case worsening > spec.Bound:
		verdict = verdictWorse
	case spread > spec.Bound:
		verdict = verdictUnresolved
	case worsening < 0 && -worsening > spread:
		verdict = verdictBetter
	default:
		verdict = verdictWithin
	}
	return
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// diffMain prints, per workload and end-to-end metric, both medians with
// their min/max, the bound and a verdict; then every per-layer metric that
// moved by more than 2 %. It fails if any metric is worse.
func diffMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench diff A.json B.json")
	}
	a, err := readSuite(args[0])
	if err != nil {
		return err
	}
	b, err := readSuite(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [min, max]\tB median [min, max]\tchange\tbound\tverdict\n")
	worse := 0
	for _, wl := range workloads() {
		ma, mb := a.EndToEnd[wl.name], b.EndToEnd[wl.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, spec := range endToEndSpecs() {
			sa, sb := ma[spec.Name], mb[spec.Name]
			verdict, worsening := judge(spec, sa, sb)
			if verdict == verdictWorse {
				worse++
			}
			sign := "worse"
			if worsening < 0 {
				sign = "better"
			}
			change := fmt.Sprintf("%.2f%% %s", 100*math.Abs(worsening), sign)
			if worsening == 0 {
				change = "same"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%.0f%%\t%s\n",
				wl.name, spec.Name, spec.Unit, sa.Median, sa.Min, sa.Max, sb.Median, sb.Min, sb.Max, change, 100*spec.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	for _, wl := range workloads() {
		la, lb := a.PerLayer[wl.name], b.PerLayer[wl.name]
		if la == nil || lb == nil {
			continue
		}
		var moved []string
		for name := range la {
			if math.Abs(ratio(lb[name].Median-la[name].Median, math.Abs(la[name].Median))) > 0.02 || (la[name].Median == 0) != (lb[name].Median == 0) {
				moved = append(moved, name)
			}
		}
		sort.Strings(moved)
		fmt.Fprintf(w, "\n%s: %d of %d per-layer metrics moved by more than 2%%\n", wl.name, len(moved), len(la))
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, name := range moved {
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t->\t%.6g\n", name, la[name].Unit, la[name].Median, lb[name].Median)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse than their bound allows", worse)
	}
	return nil
}
