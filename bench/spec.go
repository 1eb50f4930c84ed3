package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the multiplier the stage
// quotas in workloads.go were sized for.
const defaultSeconds = 20

// metricSpec names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before a change is rejected;
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndSpecs are the metrics a user of the database would see, reported by
// every workload from an untraced run. Each bound is at least three times the
// widest spread (interquartile range over median) any workload showed over
// ten seeds on the seed tree; README.md has the data.
func endToEndSpecs() []metricSpec {
	return []metricSpec{
		{"setup_s", "s", lower, 0.25},
		{"tpmc", "1/min", higher, 0.08},
		{"txn_per_s", "1/s", higher, 0.06},
		{"commit_ratio", "ratio", higher, 0.05},
		{"neworder_p50_ms", "ms", lower, 0.12},
		{"neworder_p95_ms", "ms", lower, 0.25},
		{"orderstatus_p50_ms", "ms", lower, 0.25},
		{"stocklevel_p50_ms", "ms", lower, 0.25},
		{"txn_p99_ms", "ms", lower, 0.12},
		{"host_us_per_txn", "us", lower, 0.25},
		{"host_allocs_per_txn", "count", lower, 0.06},
		{"peak_rss_mb", "MB", lower, 0.10},
	}
}

// specFor returns the metrics one run reports: end to end with trace off,
// per layer with trace on.
func specFor(traced bool) []metricSpec {
	if traced {
		return perLayerSpecs()
	}
	return endToEndSpecs()
}

// writeSpec prints BENCHMARK.json from the tables the program itself reports
// from, so the two cannot drift apart.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, x := range workloads() {
		wls = append(wls, wl{x.name, x.why})
	}
	b, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": defaultSeconds,
		"workloads":   wls,
		"end_to_end":  endToEndSpecs(),
		"per_layer":   perLayerSpecs(), // no bound: the field is omitted
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
