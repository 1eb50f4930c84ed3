// Command tellcli is an interactive client for a TCP Tell cluster
// (cmd/telld): it embeds a processing node locally and speaks to the
// storage nodes and commit managers over the network.
//
//	tellcli -manager host0:7000 -cms host0:7002
//
// Commands:
//
//	create <table> <col:type,...> pk=<col,...> [index=<name>:<col,...>]
//	insert <table> <v1> <v2> ...
//	get <table> <pk values...>
//	scan <table>
//	stats [-watch] <addr>
//	top [-watch] [addr]
//	tables
//	help | quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/transport"
	"tell/internal/wire"
)

func main() {
	var (
		manager = flag.String("manager", "", "management node address")
		cms     = flag.String("cms", "", "comma-separated commit-manager addresses")
	)
	flag.Parse()
	if *manager == "" || *cms == "" {
		fmt.Fprintln(os.Stderr, "tellcli: -manager and -cms are required")
		os.Exit(2)
	}
	// TELL_SEED pins the shell's RNG for reproducible sessions.
	envr := env.NewReal(env.SeedFromEnv(time.Now().UnixNano()))
	tr := transport.NewTCPNet()
	node := envr.NewNode("tellcli", 4)
	sc := store.NewClient(envr, node, tr, *manager)
	cmAddrs := strings.Split(*cms, ",")
	pn := core.New(core.Config{ID: "tellcli"}, envr, node, tr, sc,
		commitmgr.NewClient(envr, node, tr, cmAddrs))
	ctx, _ := env.DetachedCtx(node)

	cli := &cli{pn: pn, ctx: ctx, tr: tr, node: node, manager: *manager,
		tables: make(map[string]*core.TableInfo)}
	fmt.Println("tell shell — 'help' for commands")
	sc_ := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("tell> ")
		if !sc_.Scan() {
			return
		}
		line := strings.TrimSpace(sc_.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := cli.run(line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

type cli struct {
	pn      *core.PN
	ctx     env.Ctx
	tr      transport.Transport
	node    env.Node
	manager string
	tables  map[string]*core.TableInfo
}

func (c *cli) table(name string) (*core.TableInfo, error) {
	if t, ok := c.tables[name]; ok {
		return t, nil
	}
	t, err := c.pn.Catalog().OpenTable(c.ctx, name)
	if err != nil {
		return nil, err
	}
	c.tables[name] = t
	return t, nil
}

func (c *cli) run(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Println("create <table> <col:type,...> pk=<col,...> [index=<name>:<col,...>]")
		fmt.Println("insert <table> <v1> <v2> ...")
		fmt.Println("get <table> <pk values...>")
		fmt.Println("scan <table>")
		fmt.Println("stats [-watch] <addr>   # telemetry snapshot from one daemon")
		fmt.Println("top [-watch] [addr]     # cluster-wide series/heat/migration/SLO view via the manager")
		fmt.Println("quit")
		return nil
	case "create":
		return c.create(fields[1:])
	case "insert":
		return c.insert(fields[1:])
	case "get":
		return c.get(fields[1:])
	case "scan":
		return c.scan(fields[1:])
	case "stats":
		return c.stats(fields[1:])
	case "top":
		return c.top(fields[1:])
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}

func (c *cli) create(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: create <table> <col:type,...> pk=<col,...>")
	}
	s := &relational.TableSchema{Name: args[0]}
	for _, spec := range strings.Split(args[1], ",") {
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad column %q", spec)
		}
		var t relational.ColType
		switch parts[1] {
		case "int":
			t = relational.TInt64
		case "float":
			t = relational.TFloat64
		case "string":
			t = relational.TString
		case "bool":
			t = relational.TBool
		default:
			return fmt.Errorf("unknown type %q", parts[1])
		}
		s.Cols = append(s.Cols, relational.Column{Name: parts[0], Type: t})
	}
	for _, arg := range args[2:] {
		switch {
		case strings.HasPrefix(arg, "pk="):
			for _, col := range strings.Split(arg[3:], ",") {
				i, ok := s.ColIndex(col)
				if !ok {
					return fmt.Errorf("unknown pk column %q", col)
				}
				s.PKCols = append(s.PKCols, i)
			}
		case strings.HasPrefix(arg, "index="):
			parts := strings.SplitN(arg[6:], ":", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad index spec %q", arg)
			}
			ix := relational.IndexSchema{Name: parts[0]}
			for _, col := range strings.Split(parts[1], ",") {
				i, ok := s.ColIndex(col)
				if !ok {
					return fmt.Errorf("unknown index column %q", col)
				}
				ix.Cols = append(ix.Cols, i)
			}
			s.Indexes = append(s.Indexes, ix)
		}
	}
	t, err := c.pn.Catalog().CreateTable(c.ctx, s)
	if err != nil {
		return err
	}
	c.tables[s.Name] = t
	fmt.Printf("table %s created (id %d)\n", s.Name, t.Schema.ID)
	return nil
}

func (c *cli) parseRow(t *core.TableInfo, vals []string) (relational.Row, error) {
	if len(vals) != len(t.Schema.Cols) {
		return nil, fmt.Errorf("want %d values", len(t.Schema.Cols))
	}
	row := make(relational.Row, len(vals))
	for i, v := range vals {
		switch t.Schema.Cols[i].Type {
		case relational.TInt64:
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, err
			}
			row[i] = relational.I64(n)
		case relational.TFloat64:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, err
			}
			row[i] = relational.F64(f)
		case relational.TBool:
			row[i] = relational.BoolV(v == "true")
		default:
			row[i] = relational.Str(v)
		}
	}
	return row, nil
}

func (c *cli) insert(args []string) error {
	t, err := c.table(args[0])
	if err != nil {
		return err
	}
	row, err := c.parseRow(t, args[1:])
	if err != nil {
		return err
	}
	txn, err := c.pn.Begin(c.ctx)
	if err != nil {
		return err
	}
	rid, err := txn.Insert(c.ctx, t, row)
	if err != nil {
		txn.Abort(c.ctx)
		return err
	}
	if err := txn.Commit(c.ctx); err != nil {
		return err
	}
	fmt.Printf("inserted rid %d\n", rid)
	return nil
}

func (c *cli) pkVals(t *core.TableInfo, args []string) ([]relational.Value, error) {
	if len(args) != len(t.Schema.PKCols) {
		return nil, fmt.Errorf("want %d pk values", len(t.Schema.PKCols))
	}
	vals := make([]relational.Value, len(args))
	for i, a := range args {
		col := t.Schema.Cols[t.Schema.PKCols[i]]
		switch col.Type {
		case relational.TInt64:
			n, err := strconv.ParseInt(a, 10, 64)
			if err != nil {
				return nil, err
			}
			vals[i] = relational.I64(n)
		default:
			vals[i] = relational.Str(a)
		}
	}
	return vals, nil
}

func (c *cli) get(args []string) error {
	t, err := c.table(args[0])
	if err != nil {
		return err
	}
	vals, err := c.pkVals(t, args[1:])
	if err != nil {
		return err
	}
	txn, err := c.pn.Begin(c.ctx)
	if err != nil {
		return err
	}
	//lint:allow errdiscard read-only transaction: commit only releases the snapshot, the printed rows are already final
	defer txn.Commit(c.ctx)
	rid, row, found, err := txn.LookupPK(c.ctx, t, vals...)
	if err != nil {
		return err
	}
	if !found {
		fmt.Println("(not found)")
		return nil
	}
	fmt.Printf("rid=%d %s\n", rid, formatRow(row))
	return nil
}

func (c *cli) scan(args []string) error {
	t, err := c.table(args[0])
	if err != nil {
		return err
	}
	txn, err := c.pn.Begin(c.ctx)
	if err != nil {
		return err
	}
	//lint:allow errdiscard read-only transaction: commit only releases the snapshot, the printed rows are already final
	defer txn.Commit(c.ctx)
	n := 0
	err = txn.ScanTable(c.ctx, t, func(rid uint64, row relational.Row) bool {
		fmt.Printf("rid=%d %s\n", rid, formatRow(row))
		n++
		return n < 1000
	})
	fmt.Printf("(%d rows)\n", n)
	return err
}

// watchRefresh is the refresh cadence of -watch mode.
const watchRefresh = 2 * time.Second

// watchLoop runs render once, or — in watch mode — repeatedly with a screen
// clear between refreshes until the process is interrupted. A transient
// fetch error in watch mode is shown and retried on the next tick rather
// than ending the loop (the daemon may be restarting).
func (c *cli) watchLoop(watch bool, render func() error) error {
	if !watch {
		return render()
	}
	for {
		fmt.Print("\033[H\033[2J")
		if err := render(); err != nil {
			fmt.Printf("error: %v\n", err)
		}
		fmt.Printf("(refreshing every %v — ctrl-c to quit)\n", watchRefresh)
		c.ctx.Sleep(watchRefresh)
	}
}

// colWidth returns the print width for a name column: at least min, wide
// enough for the longest name so long node/counter names stay aligned.
func colWidth(min int, names ...string) int {
	w := min
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	return w
}

// stats fetches and pretty-prints a live telemetry snapshot from one
// daemon (storage node or commit manager): its windowed handler-latency
// series plus operation and trace counters. With -watch the view refreshes
// in place.
func (c *cli) stats(args []string) error {
	watch := false
	if len(args) > 0 && args[0] == "-watch" {
		watch, args = true, args[1:]
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: stats [-watch] <addr>")
	}
	addr := args[0]
	return c.watchLoop(watch, func() error { return c.showStats("node", addr) })
}

// showStats fetches addr's stats snapshot and renders it under a header
// naming what answered (one node, or the cluster via the manager).
func (c *cli) showStats(what, addr string) error {
	conn, err := c.tr.Dial(c.node, addr)
	if err != nil {
		return err
	}
	raw, err := conn.RoundTrip(c.ctx, wire.EncodeStatsExtReq())
	if err != nil {
		return err
	}
	ext, err := wire.DecodeStatsExt(raw)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s  t=%v  window=%v\n", what, ext.Node,
		time.Duration(ext.NowNs).Round(time.Millisecond), time.Duration(ext.WindowNs))
	renderExt(ext)
	return nil
}

// top renders the cluster-wide telemetry view: the manager fans the
// extended stats request out to every live storage node and returns the
// merged snapshot — windowed per-class latency series, the per-range
// heatmap ranked by recent activity, SLO breach tallies and flight-recorder
// state. Defaults to the -manager address; pass another daemon's address to
// see just that node.
func (c *cli) top(args []string) error {
	watch := false
	addr := c.manager
	for _, a := range args {
		if a == "-watch" {
			watch = true
			continue
		}
		addr = a
	}
	return c.watchLoop(watch, func() error { return c.showStats("cluster via", addr) })
}

// renderExt pretty-prints one telemetry snapshot — a single
// daemon's own view (`stats`) or the manager's merged cluster view (`top`).
func renderExt(ext *wire.StatsExt) {
	var hists, rates []wire.SeriesStat
	names := []string{}
	for _, s := range ext.Series {
		if s.Hist {
			if s.Count > 0 {
				hists = append(hists, s)
			}
		} else if s.Total != 0 {
			rates = append(rates, s)
		}
		names = append(names, s.Node+" "+s.Metric)
	}
	w := colWidth(20, names...)
	if len(hists) > 0 {
		fmt.Printf("\n%-*s %10s %12s %12s %12s %12s\n", w, "series", "count", "mean", "p50", "p99", "p999")
		for _, s := range hists {
			fmt.Printf("%-*s %10d %12s %12s %12s %12s\n", w, s.Node+" "+s.Metric, s.Count,
				time.Duration(s.MeanNs).Round(time.Microsecond),
				time.Duration(s.P50Ns).Round(time.Microsecond),
				time.Duration(s.P99Ns).Round(time.Microsecond),
				time.Duration(s.P999Ns).Round(time.Microsecond))
		}
	}
	for _, s := range rates {
		fmt.Printf("%-*s total %d\n", w, s.Node+" "+s.Metric, s.Total)
	}

	if len(ext.Heat) > 0 {
		// Rank by recent activity — the "what is hot right now" view. Ties
		// keep the canonical (node, range) order so output is deterministic.
		heat := make([]wire.HeatStat, len(ext.Heat))
		copy(heat, ext.Heat)
		sort.SliceStable(heat, func(i, j int) bool { return heat[i].RecentOps > heat[j].RecentOps })
		hn := make([]string, len(heat))
		for i := range heat {
			hn[i] = heat[i].Node
		}
		hw := colWidth(8, hn...)
		fmt.Printf("\n%-*s %-8s %12s %10s %10s %10s %12s %12s\n", hw,
			"node", "range", "recent_ops", "reads", "writes", "conflicts", "rd_bytes", "mean_lat")
		for i, h := range heat {
			if i >= 12 {
				fmt.Printf("(… %d more ranges)\n", len(heat)-12)
				break
			}
			fmt.Printf("%-*s %-8d %12d %10d %10d %10d %12d %12s\n", hw, h.Node, h.Range,
				h.RecentOps, h.Reads, h.Writes, h.Conflicts, h.ReadBytes,
				time.Duration(h.RecentLatNs).Round(time.Microsecond))
		}
	}

	if len(ext.Migr) > 0 {
		mn := make([]string, len(ext.Migr))
		for i := range ext.Migr {
			mn[i] = ext.Migr[i].Node
		}
		mw := colWidth(8, mn...)
		fmt.Printf("\n%-*s %-8s %-8s %-24s %12s %8s\n", mw,
			"node", "range", "phase", "move", "bytes", "chunks")
		for _, g := range ext.Migr {
			fmt.Printf("%-*s %-8d %-8s %-24s %12d %8d\n", mw, g.Node, g.Range,
				g.Phase, g.Source+" -> "+g.Target, g.BytesMoved, g.Chunks)
		}
	}

	for _, b := range ext.Breaches {
		fmt.Printf("SLO breach %s %s ×%d\n", b.Class, b.Quantile, b.Count)
	}
	fmt.Printf("flight: %d captured, %d evicted, %d events seen\n",
		ext.Flight.Retained, ext.Flight.Evicted, ext.Flight.Seen)
}

func formatRow(row relational.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, " | ")
}
