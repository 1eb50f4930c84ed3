package exp

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/transport"
)

// scaleoutWorkers is the closed-loop client population of the skew runs.
const scaleoutWorkers = 12

// ScaleoutSkew — elastic scale-out under a skewed workload. A 3-SN cluster
// serves a 90/10 workload whose four hot ranges all sit on one node; a
// fourth (empty) SN joins mid-run and the heat-driven placement controller
// moves ranges until the load view balances. The headline: post-rebalance
// throughput within 10% of a cluster that was balanced from the start, and
// a migration schedule reproducible from TELL_SEED alone (the shared-data
// elasticity claim of §7 — storage scales independently of processing — made
// live instead of static).
func ScaleoutSkew(opt Options) (*Table, error) {
	opt.Defaults()
	t := &Table{
		ID: "scaleout-skew",
		Title: "Elastic scale-out under skew (90% of ops on 4 hot ranges, " +
			"RF1, 12 closed-loop clients)",
		Header: []string{"configuration", "SNs", "ops/s", "vs balanced", "actions", "schedule hash"},
	}
	balanced, err := runScaleoutSkew(opt, true)
	if err != nil {
		return nil, fmt.Errorf("scaleout-skew balanced: %w", err)
	}
	elastic, err := runScaleoutSkew(opt, false)
	if err != nil {
		return nil, fmt.Errorf("scaleout-skew elastic: %w", err)
	}
	rel := func(tps float64) string {
		if balanced.before <= 0 {
			return "-"
		}
		return pct(tps / balanced.before)
	}
	t.AddRow("skewed, hot node saturated", "3", f0(elastic.before), rel(elastic.before), "-", "-")
	t.AddRow("+1 empty SN, autonomic rebalance", "4", f0(elastic.after), rel(elastic.after),
		fmt.Sprintf("%d migrations, %d splits", elastic.migrations, elastic.splits),
		fmt.Sprintf("%016x", elastic.digest))
	t.AddRow("balanced from the start", "4", f0(balanced.before), "100.0%", "-", "-")
	t.Note("the controller consumes windowed per-range heat and moves one range per pass until hottest/coldest load drops under the policy ratio; target is post-rebalance throughput within 10%% of the balanced deployment, with a byte-identical schedule (and hash) per TELL_SEED")
	return t, nil
}

// skewReport is one skew run's outcome. For the balanced configuration only
// `before` is set; the elastic run also carries the post-rebalance numbers.
type skewReport struct {
	before     float64
	after      float64
	migrations int
	splits     int
	digest     uint64
}

// runScaleoutSkew drives the closed-loop skew workload. balanced deploys 4
// SNs with the hot ranges spread one per node; the elastic configuration
// starts with 3 SNs, all hot ranges on sn0, and scales out mid-run.
func runScaleoutSkew(opt Options, balanced bool) (skewReport, error) {
	k := sim.NewKernel(opt.Seed)
	defer k.Shutdown()
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	cfg := store.ClusterConfig{NumNodes: 3, PartitionsPerNode: 4, ReplicationFactor: 1}
	if balanced {
		cfg = store.ClusterConfig{NumNodes: 4, PartitionsPerNode: 3, ReplicationFactor: 1}
	}
	cluster, err := store.NewCluster(envr, net, cfg)
	if err != nil {
		return skewReport{}, err
	}
	// Short heat windows so the controller sees current rates, not the whole
	// run's history: a moved range must read as hot at its new owner within
	// a burst or two.
	pipe := obs.New(obs.Config{Window: 20 * time.Millisecond, Windows: 8}, envr.Now)
	for _, addr := range cluster.Addrs() {
		cluster.Node(addr).SetObs(pipe)
	}

	// Hot keys live in the 4 hot ranges: all mastered by sn0 in the skewed
	// layout (round-robin puts p0,p3,p6,p9 there), one per node when
	// balanced (p0..p3). Rejection-sample until each pool is full.
	pm := cluster.Manager.Map()
	hotRange := func(key []byte) bool {
		p, ok := pm.LookupKey(key)
		if !ok {
			return false
		}
		if balanced {
			return p.ID < 4
		}
		return p.Master == "sn0"
	}
	var hot, cold [][]byte
	for i := 0; len(hot) < 192 || len(cold) < 192; i++ {
		if i > 200000 {
			return skewReport{}, fmt.Errorf("exp: key sampling did not fill the pools")
		}
		key := []byte(fmt.Sprintf("%06d-skew", i))
		switch {
		case hotRange(key) && len(hot) < 192:
			hot = append(hot, key)
		case !hotRange(key) && len(cold) < 192:
			cold = append(cold, key)
		}
	}

	pn := envr.NewNode("skew-pn", 4)
	client := cluster.NewClient(pn)
	val := []byte(strings.Repeat("v", 64))
	for _, pool := range [][][]byte{hot, cold} {
		for _, key := range pool {
			if err := cluster.BulkLoad(key, val); err != nil {
				return skewReport{}, err
			}
		}
	}
	rep := skewReport{}
	var runErr error

	// phase runs every worker for per closed-loop ops and returns ops/s over
	// the phase's virtual span.
	phase := func(ctx env.Ctx, tag string, per int) float64 {
		start := ctx.Now()
		futs := make([]env.Future, scaleoutWorkers)
		for w := 0; w < scaleoutWorkers; w++ {
			w := w
			fut := envr.NewFuture()
			futs[w] = fut
			pn.Go(fmt.Sprintf("%s-w%d", tag, w), func(ctx env.Ctx) {
				defer fut.Set(nil)
				rng := rand.New(rand.NewSource(opt.Seed*1000 + int64(w)))
				for i := 0; i < per; i++ {
					pool := hot
					if rng.Intn(10) == 0 {
						pool = cold
					}
					key := pool[rng.Intn(len(pool))]
					var err error
					if rng.Intn(2) == 0 {
						_, err = client.Put(ctx, key, val)
					} else {
						_, _, err = client.Get(ctx, key)
					}
					if err != nil && runErr == nil {
						runErr = fmt.Errorf("%s op %d: %w", tag, i, err)
					}
				}
			})
		}
		for _, f := range futs {
			f.Get(ctx)
		}
		elapsed := ctx.Now() - start
		if elapsed <= 0 {
			return 0
		}
		return float64(per*scaleoutWorkers) / elapsed.Seconds()
	}

	pn.Go("skew-driver", func(ctx env.Ctx) {
		defer k.Stop()
		phase(ctx, "warm", 100)
		rep.before = phase(ctx, "measure-before", 300)
		if balanced || runErr != nil {
			return
		}

		// Scale out: a fresh empty node joins, then burst-and-rebalance
		// rounds run until two consecutive controller passes find the load
		// view balanced. Bursts re-warm the heat windows so moved ranges
		// read as hot at their new owners.
		sn, err := cluster.AddStorageNode("sn3")
		if err != nil {
			runErr = err
			return
		}
		sn.SetObs(pipe)
		quiet := 0
		for round := 0; round < 12 && quiet < 2; round++ {
			phase(ctx, fmt.Sprintf("burst%d", round), 60)
			if runErr != nil {
				return
			}
			acted, err := cluster.Manager.RebalanceOnce(ctx)
			if err != nil {
				runErr = fmt.Errorf("rebalance round %d: %w", round, err)
				return
			}
			if acted {
				quiet = 0
			} else {
				quiet++
			}
		}
		rep.after = phase(ctx, "measure-after", 300)
	})
	if err := k.RunUntil(sim.Time(time.Hour)); err != nil {
		return skewReport{}, err
	}
	if runErr != nil {
		return skewReport{}, runErr
	}

	h := fnv.New64a()
	for _, line := range cluster.Manager.ScheduleLog() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
		switch {
		case strings.Contains(line, "migrate"):
			rep.migrations++
		case strings.Contains(line, "split"):
			rep.splits++
		}
	}
	rep.digest = h.Sum64()
	return rep, nil
}
