package tpcc_test

import (
	"slices"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/testutil"
	"tell/internal/tpcc"
)

// fakeEngine commits everything after a fixed virtual delay, except
// new-orders flagged invalid.
type fakeEngine struct {
	delay time.Duration
	calls [5]int
}

func (f *fakeEngine) NewOrder(ctx env.Ctx, in *tpcc.NewOrderInput) (bool, error) {
	f.calls[tpcc.TxNewOrder]++
	ctx.Sleep(f.delay)
	return !in.InvalidItem, nil
}
func (f *fakeEngine) Payment(ctx env.Ctx, in *tpcc.PaymentInput) (bool, error) {
	f.calls[tpcc.TxPayment]++
	ctx.Sleep(f.delay)
	return true, nil
}
func (f *fakeEngine) OrderStatus(ctx env.Ctx, in *tpcc.OrderStatusInput) (bool, error) {
	f.calls[tpcc.TxOrderStatus]++
	ctx.Sleep(f.delay)
	return true, nil
}
func (f *fakeEngine) Delivery(ctx env.Ctx, in *tpcc.DeliveryInput) (bool, error) {
	f.calls[tpcc.TxDelivery]++
	ctx.Sleep(f.delay)
	return true, nil
}
func (f *fakeEngine) StockLevel(ctx env.Ctx, in *tpcc.StockLevelInput) (bool, error) {
	f.calls[tpcc.TxStockLevel]++
	ctx.Sleep(f.delay)
	return true, nil
}

func TestDriverAccounting(t *testing.T) {
	k := sim.NewKernel(testutil.Seed(t, 5))
	envr := env.NewSim(k)
	node := envr.NewNode("driver", 4)
	eng := &fakeEngine{delay: time.Millisecond}
	cfg := tpcc.Config{Warehouses: 4, Scale: 0.02, Seed: 1}
	drv := tpcc.NewDriver(cfg, tpcc.StandardMix(), []tpcc.Engine{eng}, 8, 3)
	var res *tpcc.Result
	node.Go("run", func(ctx env.Ctx) {
		defer k.Stop()
		res = drv.Run(ctx, envr, node, 50, 500)
	})
	if err := k.RunUntil(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if res == nil {
		t.Fatal("driver did not finish")
	}
	// Exactly `measure` transactions counted after warm-up.
	if got := res.TotalCommitted() + res.TotalAborted(); got != 500 {
		t.Fatalf("measured %d, want 500", got)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	// 8 terminals × 1ms per tx ⇒ throughput ≈ 8000 tx/s of virtual time.
	tps := res.Tps()
	if tps < 6000 || tps > 8800 {
		t.Fatalf("Tps = %v, want ≈8000", tps)
	}
	// The only aborts are the ~1% invalid-item new-orders.
	if res.TotalAborted() > 25 {
		t.Fatalf("aborted = %d", res.TotalAborted())
	}
	// Mix respected (rough proportions).
	no := float64(res.Committed[tpcc.TxNewOrder]+res.Aborted[tpcc.TxNewOrder]) / 500
	if no < 0.35 || no > 0.55 {
		t.Fatalf("new-order fraction %.2f", no)
	}
	// Latency histograms captured per type, every one with a ≈1ms mean.
	h := res.Latency.Total()
	if !slices.Contains(res.Latency.Names(), "new-order") || h.Mean() < 900*time.Microsecond || h.Mean() > 1200*time.Microsecond {
		t.Fatalf("latency: %v %v", res.Latency.Names(), h)
	}
	// Warm-up + measured equals everything the engine saw.
	total := 0
	for _, c := range eng.calls {
		total += c
	}
	if total < 550 {
		t.Fatalf("engine saw %d calls, want ≥ 550 (warmup + measure)", total)
	}
}

func TestDriverStopsAllTerminals(t *testing.T) {
	k := sim.NewKernel(testutil.Seed(t, 5))
	envr := env.NewSim(k)
	node := envr.NewNode("driver", 4)
	eng := &fakeEngine{delay: 100 * time.Microsecond}
	cfg := tpcc.Config{Warehouses: 2, Scale: 0.02, Seed: 1}
	drv := tpcc.NewDriver(cfg, tpcc.ReadIntensiveMix(), []tpcc.Engine{eng}, 16, 3)
	done := false
	node.Go("run", func(ctx env.Ctx) {
		drv.Run(ctx, envr, node, 0, 200)
		done = true
		k.Stop()
	})
	if err := k.RunUntil(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("driver hung")
	}
	// After Run returns, terminals have exited; kernel can drain.
	k.Shutdown()
}
