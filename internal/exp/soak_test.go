package exp

import (
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// TestKernelResidencyPlateaus drives 1,000 TPC-C transactions through a
// 2 PN / 3 SN / 2 CM deployment and watches what the simulator holds on to:
// scheduled events, live processes and parked process goroutines must stay
// within a small multiple of the activities that exist for the whole run
// (terminals, workers, per-node batchers), and be no larger over the last
// nine tenths of the run than over the first (a closed loop: the first
// hundred transactions or so). A kernel that keeps the timeout of every
// answered request fails this by two orders of magnitude.
func TestKernelResidencyPlateaus(t *testing.T) {
	const (
		pns, sns, cms, workers = 2, 3, 2, 8
		terminals              = pns * workers * 2
		txns                   = 1000
		standing               = terminals + pns*workers + pns*(sns+cms)
	)
	seed := testutil.Seed(t, 11)
	s := deploy.NewSim(seed, transport.InfiniBand())
	err := s.Build(deploy.Spec{
		Storage: store.ClusterConfig{NumNodes: sns, ReplicationFactor: 1},
		CMs:     cms,
		PNs:     pns,
		PN:      core.Config{Workers: workers, Buffer: core.TB, CacheIndexInner: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcc.Config{Warehouses: 2, Scale: 0.02, Seed: seed}
	if _, err := tpcc.Load(s.Storage, cfg); err != nil {
		t.Fatal(err)
	}
	for _, sc := range s.StoreClients {
		sc.BatchWindow = 0
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, pn := range s.PNs {
		pn.StartWorkers()
	}

	type residency struct{ events, procs, parked int }
	var samples []residency
	var res *tpcc.Result
	err = s.Run(time.Hour, func(ctx env.Ctx) {
		var engines []tpcc.Engine
		for _, pn := range s.PNs {
			eng, err := tpcc.NewTellEngine(ctx, pn)
			if err != nil {
				t.Error(err)
				return
			}
			engines = append(engines, eng)
		}
		drv := tpcc.NewDriver(cfg, tpcc.StandardMix(), engines, terminals, seed)
		running := true
		ctx.Go("sampler", func(sctx env.Ctx) {
			for running {
				samples = append(samples, residency{s.K.Pending(), s.K.Procs(), s.K.Parked()})
				sctx.Sleep(20 * time.Microsecond)
			}
		})
		res = drv.Run(ctx, s.Env, s.Driver, 0, txns)
		running = false
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.TotalCommitted()+res.TotalAborted() != txns {
		t.Fatalf("driver result %+v, want %d transactions", res, txns)
	}
	// Peaks are bounded by what can be in flight at once, means do not drift:
	// a plateau, not a slope, over nine times the transactions.
	summarize := func(of []residency) (peak, mean residency) {
		for _, r := range of {
			peak.events, peak.procs, peak.parked = max(peak.events, r.events), max(peak.procs, r.procs), max(peak.parked, r.parked)
			mean.events, mean.procs, mean.parked = mean.events+r.events, mean.procs+r.procs, mean.parked+r.parked
		}
		n := len(of)
		return peak, residency{mean.events / n, mean.procs / n, mean.parked / n}
	}
	cut := len(samples) / 10
	earlyPeak, early := summarize(samples[:cut])
	latePeak, late := summarize(samples[cut:])
	t.Logf("%d standing activities, %d samples; first tenth: peak %+v mean %+v; rest: peak %+v mean %+v",
		standing, len(samples), earlyPeak, early, latePeak, late)
	for _, p := range []residency{earlyPeak, latePeak} {
		// Events follow the standing activities; processes add the handlers
		// of the widest transactions' parallel requests (stock-level reads a
		// few hundred rows at once), and the pool what those left behind.
		if p.events > 2*standing || p.procs > 16*standing || p.parked > 16*standing {
			t.Errorf("peak %+v out of proportion to %d standing activities", p, standing)
		}
	}
	if late.events > early.events*3/2 || late.procs > early.procs*3/2 {
		t.Errorf("residency grew with the number of transactions: mean %+v over the first tenth, %+v over the rest", early, late)
	}
}
