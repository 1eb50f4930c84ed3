//go:build ignore

// bench_ab runs the repository benchmark on a base revision and on the
// working tree in interleaved pairs — the protocol bench/README.md asks every
// host-clock claim to use — and prints, per end-to-end metric, each side's
// median and quartiles and how many pairs the working tree won.
//
//	go run scripts/bench_ab.go -base <rev> [-workload tpcc-std|all] [-pairs 10]
//	make bench-ab BASE=<rev> [W=tpcc-std|all] [PAIRS=10]
//
// -workload all runs every workload of BENCHMARK.json, one after another.
// The base revision is exported (git archive) into a temporary directory and
// built there by its own bench/run.sh, so each side runs the benchmark code of
// its own tree. Pair i uses seed 41+i on both sides; odd pairs run the base
// first, even pairs the working tree. At equal seeds every virtual-clock
// metric is deterministic, so any difference between the sides on one of them
// is reported and makes the exit status non-zero: a host-clock optimisation
// must not move them.
//
// A change that does move them names the metric it claims with -claim:
//
//	go run scripts/bench_ab.go -base <rev> -claim tpmc
//	make bench-ab BASE=<rev> CLAIM=tpmc
//
// Virtual-clock metrics may then move, every metric gets the wins/gap verdict,
// and the exit status is non-zero only if the change fails more operations
// than the base on some pair or some end-to-end metric is worse or
// unresolved.
//
// Every judged metric (each one under -claim, the host-clock ones without)
// gets the verdict of bench/diff.go: worse when the change's median is
// worse than the base's by more than the metric's BENCHMARK.json bound, and
// otherwise unresolved when either side's spread, (max - min) / median,
// exceeds that bound — unless every change run beats every base run. Either
// verdict makes the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
)

// hostClock names the end-to-end metrics measured on the host; every other
// metric in BENCHMARK.json is on the simulator's virtual clock.
var hostClock = map[string]bool{
	"setup_s": true, "host_us_per_txn": true, "host_allocs_per_txn": true, "peak_rss_mb": true,
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "tpcc-std", "benchmark workload, or all for every workload of BENCHMARK.json")
	pairs := flag.Int("pairs", 10, "interleaved base/change pairs to run")
	claim := flag.String("claim", "", "end-to-end metric the change claims to improve; lets virtual-clock metrics move")
	flag.Parse()
	if *base == "" || *pairs < 1 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, *base, *workload, *pairs, *claim)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-ab:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, base, workload string, pairs int, claim string) error {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("not inside a git checkout: %w", err)
	}
	changeDir := strings.TrimSpace(string(out))
	specs, workloads, err := readSpec(filepath.Join(changeDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if claim != "" && !slices.ContainsFunc(specs, func(s metricSpec) bool { return s.Name == claim }) {
		return fmt.Errorf("-claim %s: not an end-to-end metric of BENCHMARK.json", claim)
	}
	if workload != "all" {
		if !slices.Contains(workloads, workload) {
			return fmt.Errorf("-workload %s: not a workload of BENCHMARK.json", workload)
		}
		workloads = []string{workload}
	}

	baseDir, err := os.MkdirTemp("", "bench-ab-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)
	export := exec.CommandContext(ctx, "sh", "-c", `git -C "$1" archive --format=tar "$2" | tar -x -C "$3"`,
		"sh", changeDir, base, baseDir)
	export.Stderr = os.Stderr
	if err := export.Run(); err != nil {
		return fmt.Errorf("exporting %s: %w", base, err)
	}

	var problems []string
	for _, wl := range workloads {
		p, err := compare(ctx, baseDir, changeDir, base, wl, pairs, claim, specs)
		if err != nil {
			return err
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		return fmt.Errorf("the working tree does not pass against %s:\n  %s", base, strings.Join(problems, "\n  "))
	}
	if claim != "" {
		fmt.Println("no end-to-end metric worse than its bound or unresolved, no more failed operations")
	} else {
		fmt.Println("virtual-clock metrics identical on every pair; no end-to-end metric worse than its bound or unresolved")
	}
	return nil
}

// compare runs the pairs of one workload, prints its table and returns what
// keeps the working tree from passing on it.
func compare(ctx context.Context, baseDir, changeDir, base, workload string, pairs int, claim string, specs []metricSpec) ([]string, error) {
	var baseRuns, changeRuns []result
	var problems []string
	for i := 1; i <= pairs; i++ {
		seed := 41 + i
		sides := []string{baseDir, changeDir}
		if i%2 == 0 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		got := map[string]result{}
		for _, dir := range sides {
			r, err := benchRun(ctx, dir, workload, seed)
			if err != nil {
				return nil, fmt.Errorf("%s pair %d, %s: %w", workload, i, dir, err)
			}
			got[dir] = r
		}
		b, c := got[baseDir], got[changeDir]
		baseRuns, changeRuns = append(baseRuns, b), append(changeRuns, c)
		// Every run's noisiest metrics and the claimed one, so a verdict can
		// be checked run by run.
		shown := []string{"host_us_per_txn", "setup_s"}
		if claim != "" && !slices.Contains(shown, claim) {
			shown = append(shown, claim)
		}
		line := fmt.Sprintf("%s pair %2d seed %d:", workload, i, seed)
		for _, m := range shown {
			line += fmt.Sprintf(" %s base %.6g change %.6g;", m, b.Metrics[m].Value, c.Metrics[m].Value)
		}
		fmt.Println(strings.TrimSuffix(line, ";"))
		if claim != "" {
			if c.Failed*b.Attempted > b.Failed*c.Attempted {
				problems = append(problems, fmt.Sprintf("%s seed %d: failed %d/%d -> %d/%d",
					workload, seed, b.Failed, b.Attempted, c.Failed, c.Attempted))
			}
			continue
		}
		if b.Attempted != c.Attempted || b.Failed != c.Failed {
			problems = append(problems, fmt.Sprintf("%s seed %d: attempted/failed %d/%d -> %d/%d",
				workload, seed, b.Attempted, b.Failed, c.Attempted, c.Failed))
		}
		for _, s := range specs {
			if bv, cv := b.Metrics[s.Name].Value, c.Metrics[s.Name].Value; !hostClock[s.Name] && bv != cv {
				problems = append(problems, fmt.Sprintf("%s seed %d: %s %v -> %v", workload, seed, s.Name, bv, cv))
			}
		}
	}

	fmt.Printf("\n%s, %d pairs, base %s; median [q1, q3]; spread is the wider side's (max-min)/median\n", workload, pairs, base)
	fmt.Println("a gain needs wins >= 9/10 of the pairs and a median gap above the base's q3-q1; a spread above the bound is unresolved unless every change run beats every base run")
	fmt.Printf("%-20s %-6s %-34s %-34s %8s %7s  %s\n", "metric", "unit", "base", "change", "Δmedian", "spread", "wins/ties/losses")
	for _, s := range specs {
		bs, cs := column(baseRuns, s.Name), column(changeRuns, s.Name)
		wins, ties := 0, 0
		for i := range bs {
			switch {
			case bs[i] == cs[i]:
				ties++
			case (cs[i] < bs[i]) == (s.Better == "lower"):
				wins++
			}
		}
		bq, cq := quartiles(bs), quartiles(cs)
		bSpread, cSpread := spreadOf(bs, bq[1]), spreadOf(cs, cq[1])
		spread := max(bSpread, cSpread)
		gap := cq[1] - bq[1]
		if s.Better == "lower" {
			gap = -gap
		}
		// Without a claim the virtual-clock metrics must be identical,
		// which the pairs already checked; only host-clock ones are judged.
		judged := claim != "" || hostClock[s.Name]
		verdict := ""
		switch {
		case !judged:
		case -gap > s.Bound*math.Abs(bq[1]):
			verdict = fmt.Sprintf("  worse than its bound %.0f%%", 100*s.Bound)
			problems = append(problems, fmt.Sprintf("%s %s: median %.6g -> %.6g", workload, s.Name, bq[1], cq[1]))
		case spread > s.Bound && !beatsAll(bs, cs, s.Better):
			verdict = fmt.Sprintf("  unresolved: spread above its bound %.0f%%", 100*s.Bound)
			problems = append(problems, fmt.Sprintf("%s %s: unresolved, spread base %.1f%% change %.1f%%; runs base %.4g, change %.4g",
				workload, s.Name, 100*bSpread, 100*cSpread, sorted(bs), sorted(cs)))
		case wins*10 >= 9*pairs && gap > bq[2]-bq[0]:
			verdict = "  gain"
		}
		if s.Name == claim {
			verdict += "  (claimed)"
		}
		fmt.Printf("%-20s %-6s %-34s %-34s %+7.1f%% %6.1f%%  %d/%d/%d%s\n", s.Name, s.Unit,
			fmt.Sprintf("%.6g [%.6g, %.6g]", bq[1], bq[0], bq[2]),
			fmt.Sprintf("%.6g [%.6g, %.6g]", cq[1], cq[0], cq[2]),
			100*(cq[1]-bq[1])/bq[1], 100*spread, wins, ties, pairs-wins-ties, verdict)
	}
	fmt.Println()
	return problems, nil
}

func sorted(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

// spreadOf is (max - min) / |median| of vs; zero when the runs agree.
func spreadOf(vs []float64, median float64) float64 {
	lo, hi := slices.Min(vs), slices.Max(vs)
	if lo == hi {
		return 0
	}
	return (hi - lo) / math.Abs(median)
}

// beatsAll reports whether every change run is better than every base run.
func beatsAll(base, change []float64, better string) bool {
	if better == "lower" {
		return slices.Max(change) < slices.Min(base)
	}
	return slices.Min(change) > slices.Max(base)
}

// readSpec returns BENCHMARK.json's end-to-end metrics and workload names.
func readSpec(path string) ([]metricSpec, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd  []metricSpec `json:"end_to_end"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return spec.EndToEnd, names, nil
}

// benchRun is one untraced run of the tree in dir; the result object is the
// last line the benchmark prints.
func benchRun(ctx context.Context, dir, workload string, seed int) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", "20", "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct {
		return result{}, fmt.Errorf("run reported correct=false")
	}
	return r, nil
}

func column(runs []result, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}

// quartiles returns q1, the median and q3 of vs (linear interpolation
// between order statistics).
func quartiles(vs []float64) [3]float64 {
	s := sorted(vs)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}
