package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"datacache/client"
	"datacache/internal/model"
)

// outcome is what one workload's end-to-end run measured.
type outcome struct {
	attempted int
	failed    int
	// metrics holds the end-to-end metrics BENCHMARK.json lists, by name.
	metrics map[string]float64
	// report carries every figure the run measured, with sample counts,
	// for the human-readable line printed before the result.
	report map[string]any
	// late is the generator lateness sample (ms) behind loadgen.late_p99_ms.
	late []float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

// speedMetrics sets the gated latency_p50_rel: the median of the
// workload's per-call latencies over the median of the reference calls
// interleaved with them (see refService). The absolute latency, the CPU
// time per request (the timed loop's process CPU time, which loopCPU
// holds, minus the reference calls'; over the n requests served) and the
// latency sample's median, highest supported tail percentile and count go
// to the report. The tail is reported, not gated: on two shared cores it
// swings by more than any allowed bound.
func (o *outcome) speedMetrics(prefix string, lat []float64, loopCPU time.Duration, n int, ref refCalls) {
	s := summarize(lat)
	refP50 := median(ref.lat)
	o.report[prefix] = s
	o.report[prefix+"_p99"] = quantile(sortedCopy(lat), 0.99)
	o.report["latency_p50_ms"] = s.P50
	o.report["cpu_us_per_req"] = usOf(loopCPU-ref.cpu) / float64(n)
	o.report["ref_latency_p50_ms"] = refP50
	o.report["ref_calls"] = len(ref.lat)
	o.metrics["latency_p50_rel"] = s.P50 / refP50
}

var sessionConfig = client.SessionConfig{M: numServers, Origin: origin, Mu: costModel.Mu, Lambda: costModel.Lambda, Policy: "sc"}

// runSessionLong drives session_long: closed loop, one connection, single
// requests into one sc session that is never rotated. The whole longN
// stream is one session; the run repeats that session until its time is
// up, so every repetition prices the same lengths.
func runSessionLong(ctx context.Context, e *env, seed int64, seconds float64, ck *checker) (*outcome, error) {
	o := newOutcome()
	stream := longStream(seed)
	wantOpt, err := optimum(stream)
	if err != nil {
		return nil, err
	}
	c := e.clients[0]
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var lat, first, last, states, ratios, rates, growths []float64
	var ref refCalls
	var loopCPU time.Duration
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		sess, err := c.CreateSession(ctx, sessionConfig)
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		what := fmt.Sprintf("session_long rep %d", rep)
		mono := monotone{what: what}
		repLat := make([]float64, 0, len(stream))
		cpu0 := cpuTime()
		prevEnd := time.Now()
		for i, r := range stream {
			o.attempted++
			t0 := time.Now()
			o.late = append(o.late, ms(t0.Sub(prevEnd)))
			d, err := sess.Serve(ctx, r.Server, r.Time)
			l := ms(time.Since(t0))
			if err != nil {
				o.failed++
				ck.failf("%s: request %d: %v", what, i, err)
				break
			}
			repLat = append(repLat, l)
			if d.N != i+1 {
				ck.failf("%s: decision %d reports n=%d", what, i, d.N)
			}
			mono.see(ck, i, d.Cost)
			if err := e.ref.call(0, i, &ref); err != nil {
				return nil, err
			}
			prevEnd = time.Now()
		}
		loopCPU += cpuTime() - cpu0
		rates = append(rates, float64(len(repLat))/sum(repLat)*1000)
		st, err := sess.State(ctx)
		if err != nil {
			return nil, fmt.Errorf("session state: %w", err)
		}
		ck.finalState(what, st.N, len(stream), st.Cost, st.Optimal, wantOpt)
		if !(st.Ratio > 1) {
			ck.failf("%s: cost_ratio %.17g is not above 1", what, st.Ratio)
		}
		ratios = append(ratios, st.Ratio)
		open := heapAfterGC()
		if _, err := sess.Close(ctx); err != nil {
			return nil, fmt.Errorf("close session: %w", err)
		}
		states = append(states, open-heapAfterGC())
		lat = append(lat, repLat...)
		q := len(repLat) / 4
		first = append(first, repLat[:q]...)
		last = append(last, repLat[len(repLat)-q:]...)
		growths = append(growths, quarterGrowth(repLat))
	}
	for _, r := range ratios[1:] {
		if r != ratios[0] {
			ck.failf("session_long: cost_ratio differs across repetitions of one stream: %.17g vs %.17g", r, ratios[0])
		}
	}
	o.speedMetrics("latency_ms", lat, loopCPU, len(lat), ref)
	o.report["throughput_rps"] = median(rates)
	o.metrics["latency_growth"] = median(growths)
	o.metrics["state_mb"] = median(states) / (1 << 20)
	o.metrics["cost_ratio"] = ratios[0]
	o.report["sessions"] = len(ratios)
	o.report["session_rps"] = rates
	o.report["session_growth"] = growths
	o.report["session_requests"] = len(stream)
	o.report["latency_q1_ms"] = summarize(first)
	o.report["latency_q4_ms"] = summarize(last)
	return o, nil
}

// pool_wide settings. The two fixed open-loop rates were chosen from the
// closed-loop capacity of the commit that introduced this benchmark (about
// 15000 requests/s over two connections on a two-core machine, client and
// service in one process): lo is about an eighth of it and hi about half.
// They are absolute, so every later commit is measured at the same
// offered load.
const (
	poolRateLo    = 2000.0 // requests/s over both connections
	poolRateHi    = 8000.0
	poolLimitMS   = 5.0   // p99 latency limit, from due time
	poolSatN      = 10000 // requests per connection of the closed-loop capacity phase
	poolProbeSec  = 0.4   // length of one max-rate probe
	poolMinRate   = 50.0  // the search never probes below this
	poolLoSec     = 0.05  // share of the run the open loop at lo takes
	poolHiSec     = 0.1   // share of the run the open loop at hi takes
	poolSearchSec = 0.1   // share of the run the max-rate search may use
)

var poolTenants = [conns]string{"c0", "c1"}

// poolPhase is one load phase of pool_wide: a fresh pool per connection,
// served the first requests of that connection's stream, checked at the
// end.
type poolPhase struct {
	res         driveResult
	cpu         time.Duration // process CPU time while the phase's calls ran
	first, last []float64     // latencies of each load goroutine's first and last quarter
	growing     bool
	cost, opt   float64
	pools       []*client.Pool
	ref         refCalls // closed loop only: the interleaved reference calls
}

// runPoolPhase serves n requests (n/conns per connection) at the given
// total rate, one goroutine per connection. Rate 0 is a closed loop with
// one call in flight: a single goroutine alternates the connections and
// follows each call with a reference call, so a call's latency is the
// client, the loopback socket and the service, not two closed loops
// queueing for two cores with the collector. Each pool's final state is
// checked against the off-line optimum of what it was sent.
func runPoolPhase(ctx context.Context, e *env, seed int64, rate float64, n int, ck *checker, label string) (*poolPhase, error) {
	per := max(n/conns, 1)
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) * conns / rate)
	}
	ph := &poolPhase{pools: make([]*client.Pool, conns)}
	for c := range ph.pools {
		p, err := e.clients[c].CreatePool(ctx, client.PoolConfig{
			M: numServers, Origin: origin, Mu: costModel.Mu, Lambda: costModel.Lambda,
			Policy: "sc", MaxItems: poolMaxItems,
		})
		if err != nil {
			return nil, fmt.Errorf("create pool: %w", err)
		}
		ph.pools[c] = p
	}
	revived := make([][]bool, conns)
	streams := make([][]poolReq, conns)
	monos := make([]monotone, conns)
	for c := range streams {
		streams[c] = poolStream(seed, c, per)
		revived[c] = make([]bool, per)
		monos[c] = monotone{what: fmt.Sprintf("pool_wide %s pool %d", label, c)}
	}
	serve := func(c, i int) error {
		r := streams[c][i]
		d, err := ph.pools[c].Serve(ctx, poolTenants[c], r.Item, r.Server, r.Time)
		if err != nil {
			return err
		}
		revived[c][i] = d.Revived
		monos[c].see(ck, i, d.PoolCost)
		return nil
	}
	var results []driveResult
	cpu0 := cpuTime()
	start := time.Now().Add(5 * time.Millisecond)
	if rate == 0 {
		// Each call is followed by one reference call, outside its timing.
		var res driveResult
		for j := 0; j < per*conns; j++ {
			t0 := time.Now()
			if err := serve(j%conns, j/conns); err != nil {
				res.failed++
				res.misses++
			} else {
				res.lat = append(res.lat, ms(time.Since(t0)))
			}
			if err := e.ref.call(0, j, &ph.ref); err != nil {
				return nil, err
			}
		}
		results = []driveResult{res}
	} else {
		results = make([]driveResult, conns)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Open-loop connections interleave: the second one is
				// offset by half an interval.
				results[c] = drive(start.Add(time.Duration(c)*interval/conns), interval, per, poolLimitMS, func(i int) error {
					return serve(c, i)
				})
			}(c)
		}
		wg.Wait()
	}
	ph.cpu = cpuTime() - cpu0
	for _, res := range results {
		ph.growing = ph.growing || backlogGrowing(res.lat, poolLimitMS)
		q := len(res.lat) / 4
		ph.first = append(ph.first, res.lat[:q]...)
		ph.last = append(ph.last, res.lat[len(res.lat)-q:]...)
	}
	ph.res = merge(results)
	for c, p := range ph.pools {
		what := fmt.Sprintf("pool_wide %s pool %d", label, c)
		st, err := p.State(ctx)
		if err != nil {
			return nil, fmt.Errorf("pool state: %w", err)
		}
		if ph.res.failed > 0 {
			ck.failf("%s: %d requests of the phase failed", what, ph.res.failed)
		} else {
			want, err := poolOptimum(streams[c], revived[c])
			if err != nil {
				return nil, err
			}
			ck.finalState(what, st.N, per, st.Cost, st.Optimal, want)
		}
		ph.cost += st.Cost
		ph.opt += st.Optimal
	}
	return ph, nil
}

func (ph *poolPhase) close(ctx context.Context) error {
	for _, p := range ph.pools {
		if _, err := p.Close(ctx); err != nil {
			return fmt.Errorf("close pool: %w", err)
		}
	}
	return nil
}

// passes reports whether a phase met the latency limit at its p99, with
// failed calls counted as misses, and without a growing backlog.
func (ph *poolPhase) passes() bool {
	attempted := len(ph.res.lat) + ph.res.failed
	return !ph.growing && float64(ph.res.misses) <= 0.01*float64(attempted)
}

// poolOptimum is the optimum a pool must report for the requests it was
// sent: every incarnation of every key (the first request of a key, and
// each request that revived an evicted key, starts one) is an independent
// sequence served from the origin copy at time 0.
func poolOptimum(reqs []poolReq, revived []bool) (float64, error) {
	open := map[string][]model.Request{}
	total := 0.0
	flush := func(item string) error {
		seg := open[item]
		if len(seg) == 0 {
			return nil
		}
		opt, err := optimum(seg)
		total += opt
		return err
	}
	for i, r := range reqs {
		if revived[i] {
			if err := flush(r.Item); err != nil {
				return 0, err
			}
			open[r.Item] = nil
		}
		open[r.Item] = append(open[r.Item], model.Request{Server: r.Server, Time: r.Time})
	}
	for item := range open {
		if err := flush(item); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// runPoolWide drives pool_wide over two connections, one tenant and one
// pool per connection (so each pool's LRU order, and with it the cost, is
// a function of the seed alone), single requests over poolItems keys with
// MaxItems poolMaxItems. Its users are independent, so it is measured
// open loop at the fixed rates lo and hi, timed from each request's due
// time, and by a search for the highest rate that meets the p99 limit
// without a growing backlog. On a two-core machine that shares the
// process with its load generator, open-loop figures are set by garbage
// collection and scheduler stalls and swing by more than any usable
// bound, so they go to the report; the gated metrics come from the rest
// of the run, a closed-loop capacity phase of a fixed poolSatN requests
// per connection repeated until time is up.
func runPoolWide(ctx context.Context, e *env, seed int64, seconds float64, ck *checker) (*outcome, error) {
	o := newOutcome()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	run := func(rate float64, n int, label string) (*poolPhase, error) {
		ph, err := runPoolPhase(ctx, e, seed, rate, n, ck, label)
		if err != nil {
			return nil, err
		}
		o.attempted += len(ph.res.lat) + ph.res.failed
		o.failed += ph.res.failed
		return ph, nil
	}
	lo, err := run(poolRateLo, int(poolRateLo*poolLoSec*seconds), "lo")
	if err != nil {
		return nil, err
	}
	if err := lo.close(ctx); err != nil {
		return nil, err
	}
	hi, err := run(poolRateHi, int(poolRateHi*poolHiSec*seconds), "hi")
	if err != nil {
		return nil, err
	}
	if err := hi.close(ctx); err != nil {
		return nil, err
	}
	// Open-loop latencies are only as good as the generator's schedule: a
	// generator whose own lateness p99 exceeds the latency limit marks
	// them invalid. The gated metrics come from the closed loop and stand.
	o.late = append(append(o.late, lo.res.late...), hi.res.late...)
	o.report["loadgen_late_ms"] = summarize(o.late)
	o.report["open_loop_valid"] = quantile(sortedCopy(o.late), 0.99) <= poolLimitMS
	o.report["latency_lo_ms"] = summarize(lo.res.lat)
	o.report["latency_hi_ms"] = summarize(hi.res.lat)
	o.report["lo_passes"] = lo.passes()
	o.report["hi_passes"] = hi.passes()

	// Max-rate search: step up from hi by 25% while probes pass (down
	// while they fail), then bisect between the best pass and the first
	// failure, within the search's share of the run.
	budget := time.Now().Add(time.Duration(poolSearchSec * seconds * float64(time.Second)))
	best, bad := 0.0, 0.0
	if hi.passes() {
		best = poolRateHi
	} else {
		bad = poolRateHi
	}
	var probes []map[string]any
	for time.Now().Before(budget) {
		r := (best + bad) / 2
		switch {
		case bad == 0:
			r = best * 1.25
		case best == 0:
			r = bad / 1.25
		case bad/best < 1.02:
			r = 0
		}
		if r < poolMinRate {
			break
		}
		ph, err := run(r, int(r*poolProbeSec), fmt.Sprintf("probe %.0f", r))
		if err != nil {
			return nil, err
		}
		if err := ph.close(ctx); err != nil {
			return nil, err
		}
		s := summarize(ph.res.lat)
		probes = append(probes, map[string]any{"rate": r, "pass": ph.passes(), "p50": s.P50, "tail": s.Tail, "tail_pct": s.TailPct, "failed": ph.res.failed})
		if ph.passes() {
			best = r
		} else {
			bad = r
		}
	}
	o.report["max_rate_rps"] = best
	o.report["max_rate_probes"] = probes

	// Capacity: the same closed-loop phase repeated until the run's time
	// is up (at least twice). state_mb and latency_growth are medians over
	// the repetitions; latency_p50_rel pools every call of every one.
	var sat *poolPhase
	var satLat, rates, growths, states []float64
	var ref refCalls
	var loopCPU time.Duration
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		ph, err := run(0, conns*poolSatN, fmt.Sprintf("capacity %d", rep))
		if err != nil {
			return nil, err
		}
		if sat == nil {
			sat = ph
		} else if ph.cost != sat.cost || ph.opt != sat.opt {
			ck.failf("pool_wide: capacity repetition %d cost %.17g/%.17g differs from the first %.17g/%.17g", rep, ph.cost, ph.opt, sat.cost, sat.opt)
		}
		openHeap := heapAfterGC()
		if err := ph.close(ctx); err != nil {
			return nil, err
		}
		states = append(states, openHeap-heapAfterGC())
		satLat = append(satLat, ph.res.lat...)
		rates = append(rates, float64(len(ph.res.lat))/sum(ph.res.lat)*1000)
		growths = append(growths, median(ph.last)/median(ph.first))
		loopCPU += ph.cpu
		ref.add(ph.ref)
	}
	o.metrics["state_mb"] = median(states) / (1 << 20)
	o.metrics["cost_ratio"] = (lo.cost + hi.cost + sat.cost) / (lo.opt + hi.opt + sat.opt)
	o.speedMetrics("latency_capacity_ms", satLat, loopCPU, len(satLat), ref)
	o.metrics["latency_growth"] = median(growths)
	o.report["throughput_rps"] = median(rates)
	o.report["capacity_rps"] = rates
	return o, nil
}

// Mobile-batch settings: the live policy, its shadow panel, and the read
// mix (one call in mobileReadEvery reads the other connection's state).
const (
	mobilePolicy    = "hybrid:horizon=8,order=2"
	mobileReadEvery = 8
)

var mobileShadows = []string{"ttl:window=0.5", "sc:epoch=16", "migrate", "replicate"}

var mobileConfig = client.SessionConfig{
	M: numServers, Origin: origin, Mu: costModel.Mu, Lambda: costModel.Lambda,
	Policy: mobilePolicy, Shadows: mobileShadows,
}

// mobileWorker is one connection of mobile_batch. id names its current
// session; the other connection reads it under mu, so a rotation never
// closes a session mid-read.
type mobileWorker struct {
	c    *client.Client
	conn int
	refs *refService
	mu   sync.RWMutex
	id   string

	batchLat, readLat []float64
	first, last       []float64 // batch latencies of each session's first and last quarter
	late              []float64 // ms between a reply and the next call's send
	prevEnd           time.Time
	served, reads     int
	sessions          int
	failed            int
	final             map[int]float64 // stream index → final cost, for the determinism check
	ref               refCalls        // one reference call after each batch call
}

// serveSession serves one whole mobile session of stream k, interleaving
// reads of the peer, and checks it.
func (w *mobileWorker) serveSession(ctx context.Context, peer *mobileWorker, stream []model.Request, k int, wantOpt float64, ck *checker, what string, call *int) error {
	sess, err := w.c.CreateSession(ctx, mobileConfig)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	w.mu.Lock()
	w.id = sess.ID
	w.mu.Unlock()
	mono := monotone{what: what}
	batches := len(stream) / mobileBatch
	lat := make([]float64, 0, batches)
	n := 0
	for b := 0; b < batches; b++ {
		if *call%mobileReadEvery == mobileReadEvery-1 {
			w.read(ctx, peer, *call/mobileReadEvery, ck)
			*call++
		}
		*call++
		reqs := batchOf(stream, b)
		t0 := time.Now()
		if !w.prevEnd.IsZero() {
			w.late = append(w.late, ms(t0.Sub(w.prevEnd)))
		}
		res, err := sess.ServeBatch(ctx, reqs)
		w.prevEnd = time.Now()
		if err != nil {
			w.failed++
			ck.failf("%s: batch %d: %v", what, b, err)
			break
		}
		lat = append(lat, ms(w.prevEnd.Sub(t0)))
		if err := w.refs.call(w.conn, *call, &w.ref); err != nil {
			return err
		}
		w.prevEnd = time.Now()
		if res.Applied != len(reqs) || res.FirstRejected != -1 || len(res.Decisions) != len(reqs) {
			ck.failf("%s: batch %d applied %d of %d (first rejected %d)", what, b, res.Applied, len(reqs), res.FirstRejected)
		}
		for i, d := range res.Decisions {
			mono.see(ck, n+i, d.Cost)
		}
		n += len(res.Decisions)
		if res.N != n {
			ck.failf("%s: batch %d reports n=%d, sent %d", what, b, res.N, n)
		}
	}
	w.served += n
	w.sessions++
	w.batchLat = append(w.batchLat, lat...)
	q := len(lat) / 4
	w.first = append(w.first, lat[:q]...)
	w.last = append(w.last, lat[len(lat)-q:]...)
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := sess.State(ctx)
	if err != nil {
		return fmt.Errorf("session state: %w", err)
	}
	ck.finalState(what, st.N, len(stream), st.Cost, st.Optimal, wantOpt)
	if prev, ok := w.final[k]; ok && prev != st.Cost {
		ck.failf("%s: stream %d cost %.17g differs from an earlier session on the same stream (%.17g)", what, k, st.Cost, prev)
	}
	w.final[k] = st.Cost
	if _, err := sess.Close(ctx); err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	w.id = ""
	return nil
}

// batchOf is the b-th batch of a mobile stream as client requests.
func batchOf(stream []model.Request, b int) []client.Request {
	reqs := make([]client.Request, mobileBatch)
	for i, r := range stream[b*mobileBatch : (b+1)*mobileBatch] {
		reqs[i] = client.Request{Server: r.Server, T: r.Time}
	}
	return reqs
}

// read issues one read call against the peer's current session: its
// state, its shadow standings, or a metrics-history window query.
func (w *mobileWorker) read(ctx context.Context, peer *mobileWorker, j int, ck *checker) {
	peer.mu.RLock()
	id := peer.id
	t0 := time.Now()
	var err error
	switch {
	case j%3 == 2 || id == "":
		_, err = w.c.History(ctx, client.HistoryQuery{Series: []string{"dc_engine_events_total"}, Window: time.Minute, Agg: "rate"})
	case j%3 == 0:
		_, err = w.c.OpenSession(id).State(ctx)
	default:
		_, err = w.c.OpenSession(id).Shadow(ctx)
	}
	peer.mu.RUnlock()
	w.reads++
	if err != nil {
		w.failed++
		ck.failf("mobile_batch read %d: %v", j, err)
		return
	}
	w.prevEnd = time.Now()
	w.readLat = append(w.readLat, ms(w.prevEnd.Sub(t0)))
}

// runMobileBatch drives mobile_batch: closed loop over two connections,
// each serving batch-64 JSON into its own hybrid-planner sessions with the
// shadow panel and the flight recorder attached, rotating sessions every
// mobileRotate requests and reading the other connection's session (or
// the metrics history) on one call in mobileReadEvery.
func runMobileBatch(ctx context.Context, e *env, seed int64, seconds float64, ck *checker) (*outcome, error) {
	o := newOutcome()
	streams := make([][][]model.Request, conns)
	opts := make([][]float64, conns)
	for c := range streams {
		for k := 0; k < mobileStreams; k++ {
			s := mobileStream(seed, c, k)
			opt, err := optimum(s)
			if err != nil {
				return nil, err
			}
			streams[c] = append(streams[c], s)
			opts[c] = append(opts[c], opt)
		}
	}
	workers := make([]*mobileWorker, conns)
	for c := range workers {
		workers[c] = &mobileWorker{c: e.clients[c], conn: c, refs: e.ref, final: map[int]float64{}}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for c := range workers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w, peer := workers[c], workers[(c+1)%conns]
			call := 0
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				i := k % mobileStreams
				what := fmt.Sprintf("mobile_batch conn %d session %d", c, k)
				if err := w.serveSession(ctx, peer, streams[c][i], i, opts[c][i], ck, what, &call); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var batchLat, readLat, first, last []float64
	var ref refCalls
	served := 0
	for _, w := range workers {
		batchLat = append(batchLat, w.batchLat...)
		readLat = append(readLat, w.readLat...)
		first = append(first, w.first...)
		last = append(last, w.last...)
		served += w.served
		ref.add(w.ref)
		o.late = append(o.late, w.late...)
		o.attempted += len(w.batchLat) + w.reads
		o.failed += w.failed
	}
	o.speedMetrics("batch_latency_ms", batchLat, cpu, served, ref)
	o.report["read_latency_ms"] = summarize(readLat)
	o.report["read_latency_ms_p99"] = quantile(sortedCopy(readLat), 0.99)
	// Requests per second of time spent in workload calls, over the two
	// connections.
	o.report["throughput_rps"] = float64(served) / ((sum(batchLat) + sum(readLat)) / 1000 / conns)
	o.metrics["latency_growth"] = median(last) / median(first)

	// Retained state and cost_ratio come from one more session per
	// connection on its stream 0, held open side by side: the same input
	// on every commit however many sessions the timed loop completed.
	var cost, opt float64
	sessions := make([]*client.Session, conns)
	for c := range sessions {
		sess, err := e.clients[c].CreateSession(ctx, mobileConfig)
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		sessions[c] = sess
		stream := streams[c][0]
		for b := 0; b < len(stream)/mobileBatch; b++ {
			if _, err := sess.ServeBatch(ctx, batchOf(stream, b)); err != nil {
				return nil, fmt.Errorf("state session batch: %w", err)
			}
		}
		st, err := sess.State(ctx)
		if err != nil {
			return nil, fmt.Errorf("session state: %w", err)
		}
		ck.finalState(fmt.Sprintf("mobile_batch state session %d", c), st.N, len(stream), st.Cost, st.Optimal, opts[c][0])
		if prev := workers[c].final[0]; prev != st.Cost {
			ck.failf("mobile_batch conn %d: stream 0 cost %.17g differs from the timed loop's %.17g", c, st.Cost, prev)
		}
		cost += st.Cost
		opt += st.Optimal
	}
	openHeap := heapAfterGC()
	for _, sess := range sessions {
		if _, err := sess.Close(ctx); err != nil {
			return nil, fmt.Errorf("close session: %w", err)
		}
	}
	o.metrics["state_mb"] = (openHeap - heapAfterGC()) / (1 << 20)
	o.metrics["cost_ratio"] = cost / opt
	o.report["sessions"] = workers[0].sessions + workers[1].sessions
	return o, nil
}
