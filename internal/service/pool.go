package service

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
)

// The /v1/pool routes expose datacache.Pool over HTTP: a multi-item,
// multi-tenant keyspace behind one id, lazily instantiating one engine
// per (tenant, item) key. The wire shapes mirror the single-item
// /v1/session routes — same envelope, same partial-failure batch
// semantics, same 16-shard registry underneath — with an item (and
// optional tenant) field on every serve body. Batch ingestion groups
// requests by item inside one entry-lock acquisition, so a mixed-item
// batch costs one lock round regardless of how many engines it touches.
//
// Per-pool metric series — dc_pool_items, dc_pool_evictions_total,
// dc_pool_cost / dc_pool_optimal_cost / dc_pool_cost_over_optimum and
// the per-tenant dc_pool_tenant_windowed_ratio — are retired when the
// pool closes, exactly like the per-session gauges.

// livePool is the pool kind's serving unit.
type livePool struct{ *datacache.Pool }

// PoolCreateRequest is the /v1/pool body. Policy/window/epoch configure
// the per-item engines; maxItems bounds live engine state (0 unbounded)
// with LRU eviction beyond it.
type PoolCreateRequest struct {
	M      int            `json:"m"`
	Origin model.ServerID `json:"origin"`
	Model  CostModelDTO   `json:"model"`
	// Policy is a PolicySpec string for every item engine ("sc",
	// "ttl:window=0.5", "hybrid:horizon=8,order=2", ...); Window and Epoch
	// apply when the spec does not carry its own.
	Policy   string   `json:"policy,omitempty"`
	Window   float64  `json:"window,omitempty"`
	Epoch    int      `json:"epoch,omitempty"`
	MaxItems int      `json:"maxItems,omitempty"`
	Shadows  []string `json:"shadows,omitempty"` // counterfactual policy specs
}

// PoolShadowResponse is the GET {id}/shadow reply: pool-wide
// counterfactual policy standings aggregated across every item engine,
// evicted incarnations included.
type PoolShadowResponse struct {
	ID      string  `json:"id"`
	Policy  string  `json:"policy"`
	N       int     `json:"n"`
	Cost    float64 `json:"cost"`
	Optimal float64 `json:"optimal"`
	Ratio   float64 `json:"ratio"`
	datacache.ShadowReport
}

// PoolState reports a pool's standing, tenants included.
type PoolState struct {
	ID        string                  `json:"id"`
	Items     int                     `json:"items"`
	LiveItems int                     `json:"liveItems"`
	MaxItems  int                     `json:"maxItems,omitempty"`
	Evictions int                     `json:"evictions"`
	Revivals  int                     `json:"revivals"`
	N         int                     `json:"n"`
	Cost      float64                 `json:"cost"`
	Optimal   float64                 `json:"optimal"`
	Ratio     float64                 `json:"ratio"`
	Tenants   []datacache.TenantStats `json:"tenants"`
}

// PoolServeRequest is one item-keyed live request ("time" is accepted as
// an alias of "t", matching the session batch DTO).
type PoolServeRequest struct {
	Tenant string         `json:"tenant,omitempty"`
	Item   string         `json:"item"`
	Server model.ServerID `json:"server"`
	T      float64        `json:"t,omitempty"`
	Time   float64        `json:"time,omitempty"` // alias of t
}

// at returns the request instant, honoring the t/time alias.
func (p PoolServeRequest) at() float64 {
	if p.T != 0 {
		return p.T
	}
	return p.Time
}

// PoolDecisionDTO is the reply to one pool-served request: the per-item
// engine decision plus the item's cross-incarnation totals and the
// pool-wide readout after the request.
type PoolDecisionDTO struct {
	ID      string         `json:"id"`
	Tenant  string         `json:"tenant,omitempty"`
	Item    string         `json:"item"`
	Revived bool           `json:"revived,omitempty"`
	Server  model.ServerID `json:"server"`
	Time    float64        `json:"time"`
	Hit     bool           `json:"hit"`
	From    model.ServerID `json:"from,omitempty"`
	Regret  float64        `json:"regret"`
	// Item-cumulative standings (across incarnations).
	ItemCost    float64 `json:"itemCost"`
	ItemOptimal float64 `json:"itemOptimal"`
	// Pool-wide standings after this request.
	PoolCost    float64 `json:"poolCost"`
	PoolOptimal float64 `json:"poolOptimal"`
	PoolRatio   float64 `json:"poolRatio"`
}

func poolDecisionDTO(id string, d datacache.PoolDecision) PoolDecisionDTO {
	return PoolDecisionDTO{
		ID:          id,
		Tenant:      d.Tenant,
		Item:        d.Item,
		Revived:     d.Revived,
		Server:      d.Server,
		Time:        d.Decision.Time,
		Hit:         d.Hit,
		From:        d.From,
		Regret:      d.Regret,
		ItemCost:    d.ItemCost,
		ItemOptimal: d.ItemOptimal,
		PoolCost:    d.PoolCost,
		PoolOptimal: d.PoolOptimal,
		PoolRatio:   d.PoolRatio,
	}
}

// PoolBatchResponse is the bulk-ingestion reply. Failure is per-item
// partial: rejected lists the first refused request of every item that
// had one; firstRejected/rejectReason keep the single-item view.
type PoolBatchResponse struct {
	ID            string                    `json:"id"`
	N             int                       `json:"n"`
	Applied       int                       `json:"applied"`
	FirstRejected int                       `json:"firstRejected"`
	RejectReason  string                    `json:"rejectReason,omitempty"`
	Rejected      []datacache.PoolRejection `json:"rejected,omitempty"`
	Decisions     []PoolDecisionDTO         `json:"decisions"`
	Cost          float64                   `json:"cost"`
	Optimal       float64                   `json:"optimal"`
	Ratio         float64                   `json:"ratio"`
}

// PoolItemsResponse is the GET {id}/items reply: item standings ranked
// by cumulative cost (default) or regret, heaviest first.
type PoolItemsResponse struct {
	ID    string                `json:"id"`
	By    string                `json:"by"`
	Total int                   `json:"total"` // distinct keys in the pool
	Items []datacache.ItemStats `json:"items"`
}

// PoolBatchRequestBody is the JSON-object shape of POST {id}/requests.
type PoolBatchRequestBody struct {
	Requests []PoolServeRequest `json:"requests"`
}

func poolState(id string, p *datacache.Pool) PoolState {
	st := p.Stats()
	tenants := p.Tenants()
	if tenants == nil {
		tenants = []datacache.TenantStats{}
	}
	return PoolState{
		ID:        id,
		Items:     st.Items,
		LiveItems: st.LiveItems,
		MaxItems:  st.MaxItems,
		Evictions: st.Evictions,
		Revivals:  st.Revivals,
		N:         st.N,
		Cost:      st.Cost,
		Optimal:   st.Optimal,
		Ratio:     st.Ratio,
		Tenants:   tenants,
	}
}

// publish refreshes a pool's metric series after a state change.
func (p livePool) publish(s *Server, id string, ss seriesSet) {
	ss.set(s.poolItems, float64(p.LiveItems()), id)
	ss.set(s.poolCost, p.Cost(), id)
	ss.set(s.poolOpt, p.Optimal(), id)
	ss.set(s.poolRatio, p.Ratio(), id)
	// The counter is monotone and only this entry writes its series, so
	// the delta since its current value is the unpublished evictions.
	if ev := int64(p.Evictions()); ev > 0 {
		c := s.poolEvict.With(id)
		c.Add(ev - c.Value())
		ss.add(c, s.poolEvict, id)
	}
	for _, ts := range p.Tenants() {
		ss.set(s.poolTenantWRat, ts.WindowedRatio, id, ts.Tenant)
	}
	// Shadow-policy standings, the cheap O(K) path: cumulative costs are
	// maintained incrementally by the pool, no per-item walk here.
	if names := p.ShadowNames(); len(names) > 0 {
		costs := p.ShadowCosts()
		ss.shadows(s.poolShadow, id, names, func(i int) float64 { return costs[i] }, p.Policy(), p.Cost(), p.Optimal())
	}
}

// poolServe is one POST /v1/pool/{id}/request operation.
type poolServe struct {
	id  string
	p   livePool
	req PoolServeRequest
	d   datacache.PoolDecision
}

func (o *poolServe) serve(context.Context) (int, error) {
	d, err := o.p.Serve(o.req.Tenant, o.req.Item, o.req.Server, o.req.at())
	if err != nil {
		return 0, err
	}
	o.d = d
	return 1, nil
}

func (o *poolServe) decision(int) (datacache.Decision, string) { return o.d.Decision, "" }

func (o *poolServe) reply() interface{} { return poolDecisionDTO(o.id, o.d) }

// poolBatch is one POST /v1/pool/{id}/requests operation: an ordered
// multi-item batch, grouped by item inside the pool, with per-item
// partial-failure semantics.
type poolBatch struct {
	id   string
	p    livePool
	reqs []datacache.PoolRequest
	res  *datacache.PoolBatchResult
	n    int
}

func (o *poolBatch) serve(ctx context.Context) (int, error) {
	res, err := o.p.ServeBatch(ctx, o.reqs)
	if res == nil {
		return 0, err
	}
	o.res, o.n = res, o.p.N()
	if err != nil {
		// Only a context canceled mid-batch fails a batch on an open
		// pool; applied requests stay applied.
		return len(res.Decisions), fmt.Errorf("batch aborted after %d of %d requests: %v", len(res.Decisions), len(o.reqs), err)
	}
	return len(res.Decisions), nil
}

func (o *poolBatch) decision(i int) (datacache.Decision, string) {
	return o.res.Decisions[i].Decision, ""
}

func (o *poolBatch) reply() interface{} {
	resp := PoolBatchResponse{
		ID:            o.id,
		N:             o.n,
		Applied:       len(o.res.Decisions),
		FirstRejected: o.res.FirstRejected,
		RejectReason:  o.res.RejectReason,
		Rejected:      o.res.Rejected,
		Decisions:     make([]PoolDecisionDTO, len(o.res.Decisions)),
		Cost:          o.res.Cost,
		Optimal:       o.res.Optimal,
		Ratio:         o.res.Ratio,
	}
	for i, d := range o.res.Decisions {
		resp.Decisions[i] = poolDecisionDTO(o.id, d)
	}
	return resp
}

func (s *Server) handlePoolCreate(w http.ResponseWriter, r *http.Request) {
	var req PoolCreateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Origin == 0 {
		req.Origin = 1
	}
	shadows, err := datacache.WithShadowPolicies(req.Shadows...)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	// Per-item engines stay lean — no trace ring, no per-item SLO — since
	// a pool may instantiate thousands of them; ratio tracking lives at
	// the tenant rollup, windowed by the server's SLO window. Shadow
	// alerts are likewise disabled per item (margin < 0): counterfactual
	// standings aggregate at the pool rollup instead. The id is minted
	// before the pool exists so the flight recorder declares every
	// per-item stream under it.
	id := fmt.Sprintf("pl-%d", s.nextID.Add(1))
	pool, err := datacache.NewPool(req.M, req.Origin, req.Model.toModel(), &datacache.PoolOptions{
		Session: datacache.SessionOptions{
			Policy:         req.Policy,
			Window:         req.Window,
			EpochTransfers: req.Epoch,
			Observer:       s.poolObserver(),
			ShadowPolicies: shadows,
			ShadowMargin:   -1,
			Recorder:       s.recorder,
			RecordSession:  id,
		},
		MaxItems:        req.MaxItems,
		TenantSLOWindow: s.sloWindow,
	})
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	entry := newServingEntry("pool", id, livePool{pool})
	entry.unit.publish(s, id, entry.series) // before registering, as for sessions
	s.pools.put(id, entry)
	s.poolsOpen.Add(1)
	w.Header().Set("Location", "/v1/pool/"+id)
	writeJSON(w, http.StatusCreated, poolState(id, pool))
}

// poolObserver feeds every per-item decision event into the kind-labeled
// engine counters. Unlike the session observer it keeps no per-serve
// event buffer: pool spans are annotated from the decision itself.
func (s *Server) poolObserver() datacache.Observer {
	return obs.ObserverFunc(func(ev obs.Event) {
		if k := int(ev.Kind); k >= 0 && k < len(s.engineEventK) {
			s.engineEventK[k].Inc()
		}
	})
}

func (s *Server) handlePoolOp(w http.ResponseWriter, r *http.Request) {
	entry, id, op, ok := lookup(s, w, r, s.pools, "pool")
	if !ok {
		return
	}
	p := entry.unit
	switch {
	case op == "request" && r.Method == http.MethodPost:
		serveOne(s, w, r, entry, func(req PoolServeRequest) serveOp {
			return &poolServe{id: id, p: p, req: req}
		})
	case op == "requests" && r.Method == http.MethodPost:
		serveBatch(s, w, r, entry, func(items []PoolServeRequest) serveOp {
			reqs := make([]datacache.PoolRequest, len(items))
			for i, it := range items {
				reqs[i] = datacache.PoolRequest{Tenant: it.Tenant, Item: it.Item, Server: it.Server, Time: it.at()}
			}
			return &poolBatch{id: id, p: p, reqs: reqs}
		})
	case op == "record" && r.Method == http.MethodGet:
		s.handleRecordDownload(w, r, id)
	case op == "" && r.Method == http.MethodGet:
		if !entry.lock(s, w, r) {
			return
		}
		state := poolState(id, p.Pool)
		entry.lk.unlock()
		writeJSON(w, http.StatusOK, state)
	case op == "items" && r.Method == http.MethodGet:
		by, limit, err := parseItemsQuery(r.URL.Query())
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
		if !entry.lock(s, w, r) {
			return
		}
		items, rankErr := p.TopItems(by, limit)
		total := p.Items()
		entry.lk.unlock()
		if rankErr != nil {
			s.httpError(w, r, http.StatusBadRequest, rankErr)
			return
		}
		if items == nil {
			items = []datacache.ItemStats{} // render [] rather than null
		}
		if by == "" {
			by = "cost"
		}
		writeJSON(w, http.StatusOK, PoolItemsResponse{ID: id, By: by, Total: total, Items: items})
	case op == "shadow" && r.Method == http.MethodGet:
		if !entry.lock(s, w, r) {
			return
		}
		rep := p.ShadowReport()
		state := poolState(id, p.Pool)
		entry.lk.unlock()
		if rep == nil {
			s.httpError(w, r, http.StatusNotFound, fmt.Errorf("pool %q has no shadow policies", id))
			return
		}
		writeJSON(w, http.StatusOK, PoolShadowResponse{
			ID:           id,
			Policy:       p.Policy(),
			N:            state.N,
			Cost:         state.Cost,
			Optimal:      state.Optimal,
			Ratio:        state.Ratio,
			ShadowReport: *rep,
		})
	case op == "" && r.Method == http.MethodDelete:
		if !entry.lock(s, w, r) {
			return
		}
		err := p.Close()
		state := poolState(id, p.Pool)
		entry.lk.unlock()
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		if s.pools.delete(id) { // racing DELETEs must tear down once
			s.poolsOpen.Add(-1)
			entry.retire(s.tracer)
		}
		writeJSON(w, http.StatusOK, state)
	default:
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown pool operation %q %s", op, r.Method))
	}
}

// parseItemsQuery validates GET {id}/items parameters.
func parseItemsQuery(q url.Values) (by string, limit int, err error) {
	by = q.Get("by")
	switch by {
	case "", "cost", "regret":
	default:
		return "", 0, fmt.Errorf("unknown item ranking %q (cost|regret)", by)
	}
	limit = 0
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			return "", 0, fmt.Errorf("bad limit %q", raw)
		}
	}
	return by, limit, nil
}
