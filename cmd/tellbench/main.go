// Command tellbench regenerates the paper's evaluation (§6): every table
// and figure has an experiment id; running one prints the corresponding
// rows/series. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// Usage:
//
//	tellbench -list
//	tellbench fig5 fig10
//	tellbench -wh 32 -measure 5000 all
//	tellbench -trace trace.json -breakdown
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"tell/internal/env"
	"tell/internal/exp"
	"tell/internal/obs"
	"tell/internal/trace"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiment ids and exit")
		wh        = flag.Int("wh", 16, "TPC-C warehouses")
		scale     = flag.Float64("scale", 0.05, "per-warehouse row-count scale (1.0 = spec)")
		warmup    = flag.Int("warmup", 200, "warm-up transactions before measurement")
		measure   = flag.Int("measure", 2000, "measured transactions per configuration")
		seed      = flag.Int64("seed", env.SeedFromEnv(42), "random seed (runs are deterministic per seed; $TELL_SEED overrides the default)")
		durable   = flag.String("durable", "", "attach a WAL + fuzzy checkpoints to every storage node: 'mem' (zero-latency blob) or 's3' (S3-profile latency); empty = volatile")
		traceFile = flag.String("trace", "", "run one traced TPC-C deployment and write a Chrome trace_event JSON to FILE (load at ui.perfetto.dev)")
		breakdown = flag.Bool("breakdown", false, "with or without -trace: print the per-transaction-type latency breakdown of a traced run")
		series    = flag.Bool("series", false, "run one telemetry-enabled deployment and print windowed series, per-range heat, SLO breaches and flight-recorder state")
		seriesOut = flag.String("series-dump", "", "with -series: also write the full deterministic telemetry dump to FILE (byte-identical per seed)")
		flightOut = flag.String("flight", "", "with -series: write the flight recorder's captured outlier span trees as Chrome trace_event JSON to FILE")
	)
	flag.Parse()

	reg := exp.Registry()
	if *list {
		for _, n := range exp.Names() {
			fmt.Println(n)
		}
		return
	}
	opt := exp.Options{
		Warehouses: *wh,
		Scale:      *scale,
		Warmup:     *warmup,
		Measure:    *measure,
		Seed:       *seed,
		Durable:    *durable,
	}
	if *traceFile != "" || *breakdown {
		if err := runTraced(opt, *traceFile, *breakdown); err != nil {
			fmt.Fprintf(os.Stderr, "trace run failed: %v\n", err)
			os.Exit(1)
		}
		if len(flag.Args()) == 0 && !*series {
			return
		}
	}
	if *series || *seriesOut != "" || *flightOut != "" {
		if err := runSeries(opt, *seriesOut, *flightOut); err != nil {
			fmt.Fprintf(os.Stderr, "series run failed: %v\n", err)
			os.Exit(1)
		}
		if len(flag.Args()) == 0 {
			return
		}
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tellbench [flags] <experiment>... | all  (use -list to enumerate)")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = exp.Names()
	}
	for _, id := range ids {
		fn, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		table, err := fn(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(table)
		fmt.Printf("(%s completed in %v of real time)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// runTraced executes one traced Tell deployment run (2 PNs, 3 SNs, 2 CMs —
// enough nodes to exercise cross-node flow stitching) and emits the
// requested artifacts: a Perfetto-loadable trace file, a latency-breakdown
// table, or both.
func runTraced(opt exp.Options, file string, breakdown bool) error {
	opt.Trace = true
	run, err := exp.RunTell(opt, exp.TellParams{PNs: 2, SNs: 3, CMs: 2})
	if err != nil {
		return err
	}
	// Per-transaction message budget of the run (the commit-path coalescing
	// work targets CM msgs/txn < 2; see ablation-coalesce).
	fmt.Printf("network per committed txn: %.2f CM msgs, %.1f msgs, %.1f KB (abort rate %.2f%%)\n",
		run.CMMsgsPerTxn, run.MsgsPerTxn, run.BytesPerTxn/1024, 100*run.AbortRate)
	if file != "" {
		f, err := os.Create(file)
		if err != nil {
			return err
		}
		if err := run.Trace.WriteChromeTrace(f); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events", file, len(run.Trace.Events()))
		if d := run.Trace.Dropped(); d > 0 {
			fmt.Printf(", %d dropped", d)
		}
		fmt.Println(") — open at ui.perfetto.dev")
	}
	if breakdown {
		fmt.Println(exp.BreakdownTable(run.Trace, "Latency breakdown (traced run)"))
	}
	return nil
}

// runSeries executes one telemetry-enabled deployment (same 2 PN / 3 SN /
// 2 CM shape as the traced run) and emits the requested artifacts: a console
// summary, the deterministic telemetry dump and the flight recorder's outlier
// traces. (Machine-readable performance numbers come from `bash bench/run.sh`.)
func runSeries(opt exp.Options, dumpFile, flightFile string) error {
	opt.Series = true
	run, err := exp.RunTell(opt, exp.TellParams{PNs: 2, SNs: 3, CMs: 2})
	if err != nil {
		return err
	}
	p := run.Obs
	at := p.Now()
	res := run.Result

	fmt.Printf("%s: TpmC=%.0f Tps=%.0f aborts=%.2f%%  (%.1f msgs/txn, %.1f KB/txn)\n",
		res.Mix, res.TpmC(), res.Tps(), 100*run.AbortRate, run.MsgsPerTxn, run.BytesPerTxn/1024)

	// Per-class windowed quantiles against their SLO targets.
	slos := make(map[string]obs.SLO)
	for _, s := range exp.DefaultSLOs() {
		slos[s.Class] = s
	}
	fmt.Printf("\n%-14s %8s %10s %10s %10s   SLO p99\n", "class", "count", "p50", "p99", "p999")
	for _, d := range p.Snapshot() {
		if d.Node != "txn" || !d.Hist || len(d.Metric) < 5 || d.Metric[:4] != "lat/" {
			continue
		}
		class := d.Metric[4:]
		h := p.Class(d.Node, d.Metric)
		if h == nil || h.Count() == 0 {
			continue
		}
		target := "-"
		if s, ok := slos[class]; ok {
			target = s.P99.String()
		}
		fmt.Printf("%-14s %8d %10v %10v %10v   %s\n", class, h.Count(),
			h.Percentile(50).Round(time.Microsecond),
			h.Percentile(99).Round(time.Microsecond),
			h.Percentile(99.9).Round(time.Microsecond), target)
	}

	// Hottest ranges over the retention horizon.
	rows := p.HeatRows()
	obs.SortHeatByRecent(rows)
	fmt.Printf("\n%-6s %-8s %12s %10s %10s %10s %12s\n",
		"node", "range", "recent_ops", "reads", "writes", "conflicts", "mean_lat")
	for i, r := range rows {
		if i >= 10 {
			fmt.Printf("(… %d more rows)\n", len(rows)-10)
			break
		}
		fmt.Printf("%-6s %-8d %12d %10d %10d %10d %12v\n", r.Node, r.Range,
			r.Recent.Ops(), r.Total.Reads, r.Total.Writes, r.Total.Conflicts,
			r.Recent.MeanLat().Round(time.Microsecond))
	}

	breaches, dropped := p.Breaches()
	caps, evicted := p.Flight().Captures()
	fmt.Printf("\nSLO breaches: %d (%d dropped at cap)   flight: %d captured, %d evicted, %d events seen\n",
		len(breaches), dropped, len(caps), evicted, p.Flight().Seen())
	for i, b := range breaches {
		if i >= 5 {
			fmt.Printf("(… %d more breaches)\n", len(breaches)-5)
			break
		}
		fmt.Printf("  t=%v %s %s observed %v > target %v (n=%d)\n",
			b.At.Round(time.Millisecond), b.Class, b.Quantile, b.Observed.Round(time.Microsecond),
			b.Target.Round(time.Microsecond), b.Count)
	}

	if dumpFile != "" {
		f, err := os.Create(dumpFile)
		if err != nil {
			return err
		}
		if err := p.WriteDump(f, at); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (deterministic telemetry dump)\n", dumpFile)
	}
	if flightFile != "" {
		var events []trace.Event
		for i := range caps {
			events = append(events, caps[i].Events...)
		}
		f, err := os.Create(flightFile)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTraceEvents(f, events); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d captures, %d events) — open at ui.perfetto.dev\n",
			flightFile, len(caps), len(events))
	}
	return nil
}
