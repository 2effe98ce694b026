package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/recorder"
	"datacache/internal/service"
)

// tracedInput is what a replay serves: independent sessions (each stream
// one session, served in batches of mobileBatch when batch is set) or one
// pool stream.
type tracedInput struct {
	sessions [][]model.Request
	batch    bool
	pool     []poolReq
	setup    sessionSetup
}

// poolTraceN is how many requests of connection 0's pool stream the
// traced run replays for pool_wide.
const poolTraceN = 8000

func tracedInputFor(name string, seed int64) tracedInput {
	switch name {
	case "session_long":
		return tracedInput{sessions: [][]model.Request{longStream(seed)}}
	case "pool_wide":
		return tracedInput{pool: poolStream(seed, 0, poolTraceN)}
	default:
		var ss [][]model.Request
		for c := 0; c < conns; c++ {
			ss = append(ss, mobileStream(seed, c, 0))
		}
		return tracedInput{sessions: ss, batch: true, setup: sessionSetup{hybrid: true, shadows: true, recorder: true}}
	}
}

// requests is the number of requests an input serves.
func (in tracedInput) requests() int {
	n := len(in.pool)
	for _, s := range in.sessions {
		n += len(s)
	}
	return n
}

// asOneSession serves a pool stream as one session (keys ignored; the
// stream's times increase globally), so session-only layers can be
// measured on the pool workload's arrivals.
func (in tracedInput) asOneSession() [][]model.Request {
	if in.pool == nil {
		return in.sessions
	}
	reqs := make([]model.Request, len(in.pool))
	for i, r := range in.pool {
		reqs[i] = model.Request{Server: r.Server, Time: r.Time}
	}
	return [][]model.Request{reqs}
}

// asPool serves each session stream as one key of a pool.
func (in tracedInput) asPool() []poolReq {
	if in.pool != nil {
		return in.pool
	}
	var out []poolReq
	for k, s := range in.sessions {
		for _, r := range s {
			out = append(out, poolReq{Item: itemName(k), Server: r.Server, Time: r.Time})
		}
	}
	return out
}

// withRecorder opens a flight recorder with dcserved's -record-dir
// defaults (binary WAL, interval fsync, 64 MiB rotation) in a fresh
// directory under workdir; the returned function closes it and removes
// the directory. With on false there is no recorder and closing is a
// no-op.
func withRecorder(workdir string, on bool) (*recorder.Writer, func() (recorder.Stats, error), error) {
	if !on {
		return nil, func() (recorder.Stats, error) { return recorder.Stats{}, nil }, nil
	}
	dir, err := os.MkdirTemp(workdir, "rec-")
	if err != nil {
		return nil, nil, err
	}
	w, err := recorder.NewWriter(recorder.Options{
		Dir: dir, Mode: recorder.ModeBinary, Sync: recorder.SyncInterval,
		SyncInterval: recorder.DefaultSyncInterval, RotateBytes: 64 << 20, Source: "perfbench",
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return w, func() (recorder.Stats, error) {
		err := w.Close()
		st := w.Stats()
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return st, err
	}, nil
}

// facadeRun is the untraced reference: the same input through
// datacache.Session.Serve (ServeBatch for batched input) or Pool.Serve.
type facadeRun struct {
	busy      time.Duration
	n         int
	costs     []float64 // final cost per session (or the pool's)
	evictFrac float64
}

func facadePass(in tracedInput, workdir string) (*facadeRun, error) {
	f := &facadeRun{}
	if in.pool != nil {
		p, err := datacache.NewPool(numServers, origin, costModel, &datacache.PoolOptions{
			Session:         datacache.SessionOptions{Policy: "sc", ShadowMargin: -1},
			MaxItems:        poolMaxItems,
			TenantSLOWindow: service.DefaultSLOWindow,
		})
		if err != nil {
			return nil, err
		}
		for _, r := range in.pool {
			t0 := time.Now()
			_, err := p.Serve(poolTenants[0], r.Item, r.Server, r.Time)
			f.busy += time.Since(t0)
			if err != nil {
				return nil, err
			}
		}
		st := p.Stats()
		f.n = st.N
		f.costs = []float64{p.Cost()}
		f.evictFrac = float64(st.Evictions) / float64(st.Items+st.Revivals)
		return f, p.Close()
	}
	rec, done, err := withRecorder(workdir, in.setup.recorder)
	if err != nil {
		return nil, err
	}
	for _, stream := range in.sessions {
		sess, err := datacache.NewSession(numServers, origin, costModel, in.setup.options(rec))
		if err != nil {
			return nil, err
		}
		step := 1
		if in.batch {
			step = mobileBatch
		}
		for b := 0; b < len(stream); b += step {
			reqs := stream[b:min(b+step, len(stream))]
			t0 := time.Now()
			if in.batch {
				batch := make([]datacache.Request, len(reqs))
				for i, r := range reqs {
					batch[i] = datacache.Request{Server: r.Server, Time: r.Time}
				}
				_, err = sess.ServeBatch(nil, batch)
			} else {
				_, err = sess.Serve(reqs[0].Server, reqs[0].Time)
			}
			f.busy += time.Since(t0)
			if err != nil {
				return nil, err
			}
		}
		f.n += sess.N()
		f.costs = append(f.costs, sess.Cost())
		if _, err := sess.Close(); err != nil {
			return nil, err
		}
	}
	_, err = done()
	return f, err
}

// sampleEvery is how many requests the service replay serves between
// metrics-history samples.
const sampleEvery = 256

// serviceRun is what the in-process service replay measured.
type serviceRun struct {
	requests int
	costs    []float64 // final cost per session (or the pool's)
	series   int       // history series after the replay
}

// servicePass replays in through service.Server.ServeHTTP in-process,
// with the handler built exactly as the HTTP run builds it; around each
// call it also times the stdlib JSON decode of the request body and the
// encode of the reply into the service DTOs, and samples the metrics
// history every sampleEvery calls.
func servicePass(tr *layerTracer, in tracedInput, seed int64, workdir string) (*serviceRun, error) {
	rec, done, err := withRecorder(workdir, in.setup.recorder)
	if err != nil {
		return nil, err
	}
	srv := service.New(serviceOptions(seed, rec)...)
	do := func(method, path string, body []byte) ([]byte, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code >= 300 {
			return nil, fmt.Errorf("%s %s: %d %s", method, path, w.Code, w.Body.String())
		}
		return w.Body.Bytes(), nil
	}
	model := service.CostModelDTO{Mu: costModel.Mu, Lambda: costModel.Lambda}
	out := &serviceRun{}
	call := 0
	// serve makes one timed call carrying n requests: decode, handler,
	// encode, and the periodic history sample, all under the call's root
	// span.
	serve := func(path string, n int, body []byte, dto, reply any) error {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		tr.request(call)
		tr.begin(lDecode)
		err := json.Unmarshal(body, dto)
		tr.end()
		if err == nil {
			tr.begin(lHandler)
			srv.ServeHTTP(w, req)
			tr.end()
			if w.Code != http.StatusOK {
				err = fmt.Errorf("POST %s: %d %s", path, w.Code, w.Body.String())
			}
		}
		if err == nil {
			if err = json.Unmarshal(w.Body.Bytes(), reply); err == nil {
				tr.begin(lEncode)
				_, err = json.Marshal(reply)
				tr.end()
			}
		}
		if out.requests/sampleEvery != (out.requests+n)/sampleEvery {
			tr.begin(lSample)
			srv.History().Sample()
			tr.end()
		}
		tr.end()
		call++
		out.requests += n
		return err
	}
	if in.pool != nil {
		body, _ := json.Marshal(service.PoolCreateRequest{M: numServers, Origin: origin, Model: model, Policy: "sc", MaxItems: poolMaxItems})
		b, err := do(http.MethodPost, "/v1/pool", body)
		if err != nil {
			return nil, err
		}
		var st service.PoolState
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, err
		}
		var d service.PoolDecisionDTO
		for _, r := range in.pool {
			body, _ := json.Marshal(service.PoolServeRequest{Tenant: poolTenants[0], Item: r.Item, Server: r.Server, T: r.Time})
			if err := serve("/v1/pool/"+st.ID+"/request", 1, body, &service.PoolServeRequest{}, &d); err != nil {
				return nil, err
			}
		}
		out.costs = []float64{d.PoolCost}
		out.series = srv.History().Stats().Series
		if _, err := do(http.MethodDelete, "/v1/pool/"+st.ID, nil); err != nil {
			return nil, err
		}
	} else {
		create := service.SessionCreateRequest{M: numServers, Origin: origin, Model: model, Policy: "sc"}
		if in.setup.hybrid {
			create.Policy = mobilePolicy
		}
		if in.setup.shadows {
			create.Shadows = mobileShadows
		}
		cbody, _ := json.Marshal(create)
		for _, stream := range in.sessions {
			b, err := do(http.MethodPost, "/v1/session", cbody)
			if err != nil {
				return nil, err
			}
			var st service.SessionState
			if err := json.Unmarshal(b, &st); err != nil {
				return nil, err
			}
			cost := 0.0
			if in.batch {
				var res service.SessionBatchResponse
				for b := 0; b < len(stream); b += mobileBatch {
					items := make([]service.BatchRequestItem, 0, mobileBatch)
					for _, r := range stream[b:min(b+mobileBatch, len(stream))] {
						items = append(items, service.BatchRequestItem{Server: r.Server, T: r.Time})
					}
					body, _ := json.Marshal(service.SessionBatchRequest{Requests: items})
					if err := serve("/v1/session/"+st.ID+"/requests", len(items), body, &service.SessionBatchRequest{}, &res); err != nil {
						return nil, err
					}
				}
				cost = res.Cost
			} else {
				var d service.SessionDecision
				for _, r := range stream {
					body, _ := json.Marshal(service.StreamAppendRequest{Server: r.Server, Time: r.Time})
					if err := serve("/v1/session/"+st.ID+"/request", 1, body, &service.StreamAppendRequest{}, &d); err != nil {
						return nil, err
					}
				}
				cost = d.Cost
			}
			out.costs = append(out.costs, cost)
			out.series = srv.History().Stats().Series
			if _, err := do(http.MethodDelete, "/v1/session/"+st.ID, nil); err != nil {
				return nil, err
			}
		}
	}
	_, err = done()
	return out, err
}

// layerUnits names the unit of every per-layer metric.
var layerUnits = map[string]string{
	"engine.price_us":               "us",
	"engine.price_growth":           "ratio",
	"offline.append_ns":             "ns",
	"offline.state_bytes_per_req":   "B",
	"engine.decide_ns":              "ns",
	"engine.hit_ratio":              "ratio",
	"engine.shadows_us":             "us",
	"engine.shadow_divergence_frac": "ratio",
	"planner.on_request_us":         "us",
	"planner.mispredict_frac":       "ratio",
	"recorder.append_ns":            "ns",
	"recorder.dropped_frac":         "ratio",
	"recorder.bytes_per_req":        "B",
	"obs.slo_observe_ns":            "ns",
	"obs.publish_ns":                "ns",
	"tsdb.sample_us":                "us",
	"tsdb.series":                   "count",
	"service.handler_us":            "us",
	"service.decode_ns":             "ns",
	"service.encode_ns":             "ns",
	"service.allocs_per_req":        "count",
	"service.bytes_per_req":         "B",
	"datacache.session_serve_us":    "us",
	"datacache.pool_serve_us":       "us",
	"datacache.pool_evict_frac":     "ratio",
	"datacache.self_us":             "us",
	"loadgen.late_p99_ms":           "ms",
	"trace.overhead_frac":           "ratio",
	"trace.coverage_frac":           "ratio",
}

// facadeLayers are the layers a datacache.Session.Serve or Pool.Serve
// call is made of; their self times sum to the composition's cost.
var facadeLayers = []layer{lPool, lDecide, lPlanner, lAppend, lPrice, lShadows, lSLO, lRecorder}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedRun is the traced run of one workload: the untraced facade
// reference, the layer composition timed with spans and replayed for
// allocations, the in-process service replay likewise, and probes of the
// layers the workload's own path does not call. It returns the per-layer
// metrics and a per-layer table for the report, and writes the spans.
func tracedRun(name string, seed int64, workdir string, ck *checker) (map[string]float64, map[string]any, error) {
	in := tracedInputFor(name, seed)
	n := float64(in.requests())

	fac, err := facadePass(in, workdir)
	if err != nil {
		return nil, nil, fmt.Errorf("facade replay: %w", err)
	}
	tr := newLayerTracer(seed, true, false)
	comp, err := composedPass(tr, in, workdir)
	if err != nil {
		return nil, nil, fmt.Errorf("composed replay: %w", err)
	}
	svc, err := servicePass(tr, in, seed, workdir)
	if err != nil {
		return nil, nil, fmt.Errorf("service replay: %w", err)
	}
	ta := newLayerTracer(seed, false, true)
	if _, err := composedPass(ta, in, workdir); err != nil {
		return nil, nil, fmt.Errorf("composed allocation replay: %w", err)
	}
	if _, err := servicePass(ta, in, seed, workdir); err != nil {
		return nil, nil, fmt.Errorf("service allocation replay: %w", err)
	}
	// The composition and the service must price exactly as the facade:
	// a composition that drifted from the real path fails the run.
	for i, want := range fac.costs {
		if !relClose(comp.costs[i], want) || !relClose(svc.costs[i], want) {
			ck.failf("traced %s: stream %d cost: facade %.17g, composed %.17g, service %.17g", name, i, want, comp.costs[i], svc.costs[i])
		}
	}

	// Layers off this workload's path are measured on its stream anyway:
	// shadows, planner and recorder through a hybrid+panel+recorder
	// composition (its request i shares request i's trace id), and the
	// facade the workload does not use.
	probe := newLayerTracer(seed, true, false)
	probe.traceIDs = tr.traceIDs
	extras := comp
	if !in.setup.hybrid {
		pin := tracedInput{sessions: in.asOneSession(), setup: sessionSetup{hybrid: true, shadows: true, recorder: true}}
		if extras, err = composedPass(probe, pin, workdir); err != nil {
			return nil, nil, fmt.Errorf("probe replay: %w", err)
		}
	}
	sessFac, poolFac := fac, fac
	if in.pool != nil {
		sessFac, err = facadePass(tracedInput{sessions: in.asOneSession()}, workdir)
	} else {
		poolFac, err = facadePass(tracedInput{pool: in.asPool()}, workdir)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("probe facade replay: %w", err)
	}
	pick := func(l layer) *layerTracer {
		if tr.calls[l] > 0 {
			return tr
		}
		return probe
	}

	m := map[string]float64{}
	var hits, diverged, served, predHits, mispredicts int
	for _, s := range comp.sessions {
		hits += s.hits
	}
	for _, s := range extras.sessions {
		served += s.n
		diverged += s.diverged
		if s.hybrid != nil {
			st := s.hybrid.Stats()
			predHits += st.PredHits
			mispredicts += st.Mispredicts
		}
	}
	m["engine.decide_ns"] = float64(tr.perCall(lDecide))
	m["engine.hit_ratio"] = float64(hits) / n
	m["engine.price_us"] = usOf(tr.perCall(lPrice))
	m["engine.price_growth"] = priceGrowth(comp.sessions)
	m["offline.append_ns"] = float64(tr.perCall(lAppend))
	m["offline.state_bytes_per_req"] = comp.stateB / n
	m["engine.shadows_us"] = usOf(pick(lShadows).perCall(lShadows))
	m["engine.shadow_divergence_frac"] = float64(diverged) / float64(served)
	m["planner.on_request_us"] = usOf(pick(lPlanner).perCall(lPlanner))
	m["planner.mispredict_frac"] = 0
	if predHits+mispredicts > 0 {
		m["planner.mispredict_frac"] = float64(mispredicts) / float64(predHits+mispredicts)
	}
	m["recorder.append_ns"] = float64(pick(lRecorder).perCall(lRecorder))
	rs := extras.recStats
	m["recorder.dropped_frac"] = float64(rs.Dropped) / float64(rs.Records+rs.Dropped)
	m["recorder.bytes_per_req"] = float64(rs.Bytes) / float64(served)
	m["obs.slo_observe_ns"] = float64(tr.perCall(lSLO))
	sets := 5.0 // gauges published per session serve
	if in.pool != nil {
		sets = 4
	}
	m["obs.publish_ns"] = float64(tr.perCall(lPublish)) / sets
	m["tsdb.sample_us"] = usOf(tr.perCall(lSample))
	m["tsdb.series"] = float64(svc.series)
	reqs := float64(svc.requests)
	perCall := reqs / float64(tr.calls[lHandler]) // requests per handler call (batch size)
	m["service.handler_us"] = usOf(tr.self[lHandler]) / reqs
	m["service.decode_ns"] = float64(tr.self[lDecode]) / reqs
	m["service.encode_ns"] = float64(tr.self[lEncode]) / reqs
	m["service.allocs_per_req"] = float64(ta.selfM[lHandler]) / float64(ta.mCalls[lHandler]) / perCall
	m["service.bytes_per_req"] = float64(ta.selfB[lHandler]) / float64(ta.mCalls[lHandler]) / perCall
	m["datacache.session_serve_us"] = usOf(sessFac.busy) / float64(sessFac.n)
	m["datacache.pool_serve_us"] = usOf(poolFac.busy) / float64(poolFac.n)
	m["datacache.pool_evict_frac"] = poolFac.evictFrac

	var layersSelf time.Duration
	for _, l := range facadeLayers {
		layersSelf += tr.self[l]
	}
	root := lServe
	if in.pool != nil {
		root = lPool
	}
	m["datacache.self_us"] = usOf(fac.busy-layersSelf) / n
	m["trace.coverage_frac"] = float64(layersSelf) / float64(fac.busy)
	m["trace.overhead_frac"] = float64(tr.total[root]-fac.busy) / float64(fac.busy)

	table := map[string]any{}
	for l := layer(0); l < numLayers; l++ {
		src := pick(l)
		if src.calls[l] == 0 {
			continue
		}
		row := map[string]any{
			"calls":            src.calls[l],
			"self_us_per_call": usOf(src.perCall(l)),
			"self_s":           src.self[l].Seconds(),
		}
		if src == tr && ta.mCalls[l] > 0 {
			row["allocs_per_call"] = float64(ta.selfM[l]) / float64(ta.mCalls[l])
			row["bytes_per_call"] = float64(ta.selfB[l]) / float64(ta.mCalls[l])
		}
		if src == probe {
			row["off_path"] = true
		}
		table[layerNames[l]] = row
	}
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.ndjson", name, seed))
	if err := writeSpans(path, tr, probe); err != nil {
		return nil, nil, err
	}
	return m, map[string]any{"layers": table, "spans": path, "span_count": len(tr.out) + len(probe.out)}, nil
}

// priceGrowth is how much slower pricing is at the end of a session than
// at its start: the median Stream.Cost time over the last quarter of every
// session's requests over that of the first quarter. Sessions too short
// to have quarters (pool items) fall back to the whole stream's order.
func priceGrowth(sessions []*layered) float64 {
	var first, last, all []float64
	for _, s := range sessions {
		all = append(all, s.priceDurs...)
		if q := len(s.priceDurs) / 4; q >= 2 {
			first = append(first, s.priceDurs[:q]...)
			last = append(last, s.priceDurs[len(s.priceDurs)-q:]...)
		}
	}
	if len(first) == 0 {
		return quarterGrowth(all)
	}
	return median(last) / median(first)
}
