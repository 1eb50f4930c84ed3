package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// summary is one metric of one workload over the repetitions of a suite.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per repetition, in seed order
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n,omitempty"` // samples behind the first repetition's value
}

func summarize(unit string, n int, v []float64) summary {
	return summary{Unit: unit, Values: v, Median: median(v), Min: slices.Min(v), Max: slices.Max(v), N: n}
}

// suiteFile is what `bench suite` writes and `bench diff` reads.
type suiteFile struct {
	Seed     int64                         `json:"seed"`
	Reps     int                           `json:"reps"`
	Seconds  int                           `json:"seconds"`
	EndToEnd map[string]map[string]summary `json:"end_to_end"`          // workload -> metric
	PerLayer map[string]map[string]summary `json:"per_layer,omitempty"` // traced pass at the base seed
}

// suiteMain runs every workload at seeds S..S+R-1, one process per run so
// that no run inherits another's heap, and writes the medians to --out.
func suiteMain(args []string) error {
	fs := flag.NewFlagSet("bench suite", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "base seed; repetition i runs at seed+i")
	reps := fs.Int("reps", 3, "repetitions per workload")
	seconds := fs.Int("seconds", defaultSeconds, "run length passed to every run")
	traced := fs.Bool("trace", false, "also run the traced pass of every workload at the base seed")
	only := fs.String("workloads", "", "comma-separated subset of workloads (default: all)")
	traceOut := fs.String("trace-out", "", "directory for the traced pass's trace files")
	out := fs.String("out", "", "file to write the suite result to (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *reps < 1 {
		return fmt.Errorf("suite needs --out FILE and --reps >= 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := suiteFile{Seed: *seed, Reps: *reps, Seconds: *seconds,
		EndToEnd: map[string]map[string]summary{}, PerLayer: map[string]map[string]summary{}}
	for _, w := range workloads() {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.name+",") {
			continue
		}
		var runs []*report
		for i := 0; i < *reps; i++ {
			rep, err := runChild(self, w.name, *seed+int64(i), *seconds, false, "")
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: tpmc %.0f, host %.0f us/txn\n", w.name, rep.Seed, rep.Metrics["tpmc"].Value, rep.Metrics["host_us_per_txn"].Value)
			runs = append(runs, rep)
		}
		res.EndToEnd[w.name] = summarizeRuns(runs)
		if *traced {
			rep, err := runChild(self, w.name, *seed, *seconds, true, *traceOut)
			if err != nil {
				return err
			}
			res.PerLayer[w.name] = summarizeRuns([]*report{rep})
		}
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}

func summarizeRuns(runs []*report) map[string]summary {
	out := map[string]summary{}
	for name, first := range runs[0].Metrics {
		var v []float64
		for _, r := range runs {
			v = append(v, r.Metrics[name].Value)
		}
		out[name] = summarize(first.Unit, first.N, v)
	}
	return out
}

// runChild runs one (workload, seed) in a process of its own and returns the
// full report it prints on the line before the contract line.
func runChild(self, workload string, seed int64, seconds int, traced bool, traceOut string) (*report, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds)}
	if traced {
		args = append(args, "--trace", "1")
		if traceOut != "" {
			args = append(args, "--out", traceOut)
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s seed %d: run printed no report", workload, seed)
	}
	var full struct {
		Report *report `json:"report"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &full); err != nil || full.Report == nil {
		return nil, fmt.Errorf("%s seed %d: unreadable report: %v", workload, seed, err)
	}
	return full.Report, nil
}
