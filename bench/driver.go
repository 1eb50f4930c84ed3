package main

import (
	"fmt"
	"math/rand"
	"time"

	"tell/internal/env"
	"tell/internal/tpcc"
	"tell/internal/trace"
)

// nClasses is the number of TPC-C transaction types (tpcc.TxNewOrder ..
// tpcc.TxStockLevel); classNames are their spellings in metric names.
const nClasses = 5

var classNames = [nClasses]string{"neworder", "payment", "orderstatus", "delivery", "stocklevel"}

// stageResult is what one stage measured. Latencies are raw per-transaction
// samples on the virtual clock, committed transactions only (an aborted
// transaction has no useful latency; it is counted in aborted instead).
type stageResult struct {
	stage stage

	// Measured transactions by outcome: issued = committed + aborted + errored.
	issued, errored    uint64
	committed, aborted [nClasses]uint64
	lat                [nClasses][]time.Duration
	// halves splits the new-order samples by arrival order, for the
	// growing-backlog test of max_rate_under_slo.
	halves [2][]time.Duration

	// The throughput window on the virtual clock and the commits that
	// finished inside it. Closed loop: warm-up end to quota reached. Open
	// loop: first to last measured due time, so a backlog that is still
	// draining after the last arrival does not count as achieved rate.
	start, end time.Duration
	windowOpen bool
	inWindow   [nClasses]uint64

	// Open loop: how far behind its schedule the generator issued.
	latenessSum, latenessMax time.Duration
	arrivals                 uint64

	// Traced pass: per-class sums of the engine's latency components over
	// every measured transaction, and how many were folded in.
	comp      [nClasses][trace.NComps]time.Duration
	compCount [nClasses]uint64
}

func (r *stageResult) window() time.Duration { return r.end - r.start }

func (r *stageResult) totalCommitted() (n uint64) {
	for _, c := range r.committed {
		n += c
	}
	return n
}

func (r *stageResult) totalInWindow() (n uint64) {
	for _, c := range r.inWindow {
		n += c
	}
	return n
}

// outcome is how one transaction ended.
type outcome struct {
	committed bool
	err       error
	agg       *trace.TxnAgg // nil unless traced
}

// finish accounts one finished transaction. since is the instant latency is
// counted from: the begin time in a closed loop, the due time in an open one.
func (r *stageResult) finish(t tpcc.TxType, since, now time.Duration, o outcome, measured, firstHalf bool) {
	if o.committed && r.windowOpen {
		r.inWindow[t]++
	}
	if !measured {
		return
	}
	r.issued++
	switch {
	case o.err != nil:
		r.errored++
	case o.committed:
		r.committed[t]++
		r.lat[t] = append(r.lat[t], now-since)
		if t == tpcc.TxNewOrder {
			h := 1
			if firstHalf {
				h = 0
			}
			r.halves[h] = append(r.halves[h], now-since)
		}
	default:
		r.aborted[t]++
	}
	if o.agg != nil {
		r.compCount[t]++
		for c := range o.agg.D {
			r.comp[t][c] += o.agg.D[c]
		}
	}
}

// driver issues TPC-C transactions against the engines, one stage after
// another on the same cluster. It runs only under the simulator, where
// exactly one activity executes at a time, so its state needs no lock.
type driver struct {
	envr    env.Full
	node    env.Node
	engines []tpcc.Engine
	gens    []*tpcc.InputGen // one per terminal identity (home warehouse/district)
	seed    int64
	// deck is the TPC-C "deck of cards" (clause 5.2.4.2): 100 cards in the
	// mix's proportions, reshuffled when used up. Drawing every
	// transaction's type independently instead makes the number of deliveries
	// in a 3,000-transaction run vary by +-9 %, and with it throughput by
	// several per cent from seed to seed; the deck keeps the mix exact.
	deck     []tpcc.TxType
	deckNext int
	deckRng  *rand.Rand
	led      *ledger // traced pass only

	// Host-clock window: opened when the first stage starts measuring, closed
	// when the last stage has drained. hostTxns counts every transaction that
	// finished in between, measured or not: all of them cost host time.
	hostOpen        bool
	hostTxns        uint64
	onOpen, onClose func()
}

func newDriver(d *deployment, seed int64) *driver {
	dr := &driver{envr: d.envr, node: d.driver, engines: d.engines, seed: seed, led: d.ledger,
		deckRng: rand.New(rand.NewSource(seed ^ 0x6465636b))}
	for t, pct := range d.w.mix.Pct {
		for i := 0; i < pct; i++ {
			dr.deck = append(dr.deck, tpcc.TxType(t))
		}
	}
	dr.deckNext = len(dr.deck)
	for id := 0; id < terminals; id++ {
		// Same homing and per-terminal seeding as tpcc.Driver.terminal.
		w := id%d.cfg.Warehouses + 1
		dd := id/d.cfg.Warehouses%tpcc.DistrictsPerWarehouse + 1
		rng := rand.New(rand.NewSource(seed + int64(id)*7919))
		dr.gens = append(dr.gens, tpcc.NewInputGen(d.cfg, d.w.mix, w, dd, rng))
	}
	return dr
}

// next draws the next transaction for terminal identity id: its type from
// the deck, its input from the terminal's own generator. The generator picks
// types itself, so inputs of other types are drawn and dropped until one of
// the wanted type comes up; that costs microseconds, not simulated time.
func (d *driver) next(id int) (tpcc.TxType, any) {
	if d.deckNext == len(d.deck) {
		d.deckRng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.deckNext = 0
	}
	want := d.deck[d.deckNext]
	d.deckNext++
	for {
		if t, in := d.gens[id].Next(); t == want {
			return t, in
		}
	}
}

// run executes the stages in order and returns one result per stage.
func (d *driver) run(ctx env.Ctx, stages []stage, seconds int) []*stageResult {
	var out []*stageResult
	for i, st := range stages {
		st.warmup *= seconds
		st.measure *= seconds
		r := &stageResult{stage: st}
		if st.rate > 0 {
			d.open(ctx, r, rand.New(rand.NewSource(d.seed*1000003+int64(i))))
		} else {
			d.closed(ctx, r)
		}
		out = append(out, r)
	}
	d.hostOpen = false
	if d.onClose != nil {
		d.onClose()
	}
	return out
}

// openWindow starts stage r's throughput window, and with the first stage's
// the host-clock window.
func (d *driver) openWindow(r *stageResult, now time.Duration) {
	r.start, r.windowOpen = now, true
	if !d.hostOpen {
		d.hostOpen = true
		if d.onOpen != nil {
			d.onOpen()
		}
	}
}

// closed runs a closed loop: every terminal issues its next transaction as
// soon as the previous one returns, without think time (§6.2).
func (d *driver) closed(ctx env.Ctx, r *stageResult) {
	warm, left := r.stage.warmup, r.stage.measure
	stop := false
	live := terminals
	done := d.envr.NewFuture()
	if warm == 0 {
		d.openWindow(r, ctx.Now())
	}
	for id := 0; id < terminals; id++ {
		id := id
		d.node.Go(fmt.Sprintf("terminal%d", id), func(tctx env.Ctx) {
			for !stop {
				typ, in := d.next(id)
				begin := tctx.Now()
				o := d.exec(tctx, id, typ, in)
				if stop {
					break // finished after the quota: drained, not counted
				}
				if warm > 0 {
					if warm--; warm == 0 {
						d.openWindow(r, tctx.Now())
					}
					continue
				}
				r.finish(typ, begin, tctx.Now(), o, true, left > r.stage.measure/2)
				if left--; left == 0 {
					stop = true
					r.end, r.windowOpen = tctx.Now(), false
				}
			}
			if live--; live == 0 {
				done.Set(nil)
			}
		})
	}
	done.Get(ctx)
}

// open runs an open loop: arrivals follow a seeded Poisson schedule in
// virtual time whatever the system's progress, each in an activity of its
// own, and latency is counted from the due time so a stall is charged to
// every transaction it delays. The stage ends once all of them finished.
//
// The schedule is a Poisson process conditioned on its count: n exponential
// gaps scaled to span exactly n/rate. Unscaled, n arrivals take n/rate +-
// 1/sqrt(n), and near the knee a 2.5 % faster schedule is a 10 % longer
// queue, which would make the stage's latency a function of the seed's luck
// with the mean rate rather than of the system.
func (d *driver) open(ctx env.Ctx, r *stageResult, rng *rand.Rand) {
	st := r.stage
	gaps := make([]float64, st.warmup+st.measure)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	unit := float64(len(gaps)) / st.rate / sum * float64(time.Second)
	inflight, arrivalsDone := 0, false
	drained := d.envr.NewFuture()
	due := ctx.Now()
	for i, gap := range gaps {
		due += time.Duration(gap * unit)
		if wait := due - ctx.Now(); wait > 0 {
			ctx.Sleep(wait)
		}
		late := ctx.Now() - due
		r.arrivals++
		r.latenessSum += late
		if late > r.latenessMax {
			r.latenessMax = late
		}
		if i == st.warmup {
			d.openWindow(r, due)
		}
		id := i % terminals
		typ, in := d.next(id)
		measured, firstHalf := i >= st.warmup, i-st.warmup < st.measure/2
		due := due
		inflight++
		d.node.Go("txn", func(tctx env.Ctx) {
			o := d.exec(tctx, id, typ, in)
			r.finish(typ, due, tctx.Now(), o, measured, firstHalf)
			if inflight--; inflight == 0 && arrivalsDone {
				drained.Set(nil)
			}
		})
	}
	r.end, r.windowOpen = due, false
	arrivalsDone = true
	if inflight > 0 {
		drained.Get(ctx)
	}
}

// exec issues one transaction on the engine of terminal identity id. Under
// tracing it roots the transaction's scope exactly as tpcc.Driver.terminal
// does: a fresh top-level span plus the aggregator every layer below charges
// latency components into.
func (d *driver) exec(ctx env.Ctx, id int, t tpcc.TxType, input any) outcome {
	e := d.engines[id%len(d.engines)]
	sc := ctx.Trace()
	var o outcome
	var hostBegin time.Time
	if sc.R.Enabled() {
		sc.Span = sc.R.NewID()
		sc.Agg = trace.NewTxnAgg()
		o.agg = sc.Agg
		hostBegin = time.Now()
	}
	begin := ctx.Now()
	switch t {
	case tpcc.TxNewOrder:
		o.committed, o.err = e.NewOrder(ctx, input.(*tpcc.NewOrderInput))
	case tpcc.TxPayment:
		o.committed, o.err = e.Payment(ctx, input.(*tpcc.PaymentInput))
	case tpcc.TxOrderStatus:
		o.committed, o.err = e.OrderStatus(ctx, input.(*tpcc.OrderStatusInput))
	case tpcc.TxDelivery:
		o.committed, o.err = e.Delivery(ctx, input.(*tpcc.DeliveryInput))
	default:
		o.committed, o.err = e.StockLevel(ctx, input.(*tpcc.StockLevelInput))
	}
	if sc.R.Enabled() {
		var c int64
		if o.committed {
			c = 1
		}
		sc.R.Span(sc.Span, 0, ctx.Node().Name(), t.String(), begin, int64(id), c)
		sc.R.RecordTxn(t.String(), o.committed, ctx.Now()-begin, sc.Agg)
		d.led.span("txn."+classNames[t], ctx.Node().Name(), uint64(sc.Span), 0, begin, ctx.Now(), hostBegin)
		sc.Span, sc.Agg = 0, nil
	}
	if d.hostOpen {
		d.hostTxns++
	}
	return o
}
