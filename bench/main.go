// Command bench is the repository's benchmark: four TPC-C workloads on the
// simulated cluster, measured on two clocks (the simulator's virtual clock
// and the host's), end to end and layer by layer. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run
//	bench suite [--seed N] [--reps R] [--trace] --out F.json every workload, R seeds each
//	bench diff A.json B.json                                 compare two suite files
//	bench spec                                               print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// watchdog is the host-clock limit of one run; the benchmark contract allows
// 180 s, and a run that is still going by then has hung.
const watchdog = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			exit(suiteMain(os.Args[2:]))
		case "diff":
			exit(diffMain(os.Args[2:], os.Stdout))
		case "spec":
			exit(writeSpec(os.Stdout))
		}
	}
	exit(runMain(os.Args[1:]))
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runMain is one run of one workload. Its last line of standard output is
// the result object of the benchmark contract; the line before it is the
// full report (sample counts, supported tail percentiles, files written).
func runMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see `bench spec`)")
	seed := fs.Int64("seed", 42, "seed for the dataset, the inputs, the arrival schedule and the simulation kernel")
	seconds := fs.Int("seconds", defaultSeconds, "run length: each stage's transaction quota is multiplied by this")
	traced := fs.Int("trace", 0, "1: run the seed twice, untraced then traced, and report the per-layer metrics")
	out := fs.String("out", "", "with --trace 1: directory to write the engine's Chrome trace and the benchmark's span file to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: %s seed %d still running after %v of host time\n", w.name, *seed, watchdog)
		os.Exit(3)
	})
	rep, err := runWorkload(w, *seed, *seconds, *traced != 0, *out)
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", w.name, *seed, err)
	}
	return printResult(os.Stdout, rep)
}

func printResult(w io.Writer, rep *report) error {
	full, err := json.Marshal(map[string]*report{"report": rep})
	if err != nil {
		return err
	}
	type contractValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]contractValue{}
	for _, s := range specFor(rep.Trace) {
		metrics[s.Name] = contractValue{rep.Metrics[s.Name].Value, s.Unit}
	}
	last, err := json.Marshal(map[string]any{
		"correct":   true, // a run that fails its checks prints no result
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
