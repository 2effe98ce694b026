package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
)

// The /v1/session routes expose datacache.Session over HTTP: create a
// session, POST live requests one at a time (each reply carries the
// engine's decision plus the exact prefix optimum and running competitive
// ratio), GET {id}/trace for the bounded decision-event ring, and DELETE
// to close it and collect the final schedule. Unlike /v1/stream — which
// only tracks the off-line optimum — a session actually serves the
// traffic with an online policy. Every decision feeds the engine event
// counters, the decision-latency histogram and the per-session
// cost / optimum / cost_over_optimum / live_copies gauges on /metrics.

// liveSession is the session kind's serving unit: the Session plus the
// engine events of the serve operation currently running under the entry
// lock, which annotate the request's trace span with what the decision
// actually did (hit/transfer/drop/timer/epoch-reset).
type liveSession struct {
	*datacache.Session
	evs []obs.Event
}

// SessionCreateRequest is the /v1/session body.
type SessionCreateRequest struct {
	M      int            `json:"m"`
	Origin model.ServerID `json:"origin"`
	Model  CostModelDTO   `json:"model"`
	// Policy is a PolicySpec string: "sc", "ttl:window=0.5", "adaptive",
	// "sc:epoch=16", "migrate", "replicate" or "hybrid:horizon=8,order=2".
	// Window and Epoch below apply when the spec does not carry its own.
	Policy string  `json:"policy,omitempty"`
	Window float64 `json:"window,omitempty"`
	Epoch  int     `json:"epoch,omitempty"`
	// Shadows lists counterfactual policies to evaluate in lockstep with
	// live serving ("sc:window=1.5", "ttl:window=0.5", "sc:epoch=16",
	// "migrate", "replicate"); standings at GET {id}/shadow.
	Shadows []string `json:"shadows,omitempty"`
}

// SessionState reports a session's standing. Planner is present only on
// hybrid sessions.
type SessionState struct {
	ID         string                  `json:"id"`
	Policy     string                  `json:"policy"`
	N          int                     `json:"n"`
	Hits       int                     `json:"hits"`
	Transfers  int                     `json:"transfers"`
	LiveCopies int                     `json:"liveCopies"`
	Cost       float64                 `json:"cost"`
	Optimal    float64                 `json:"optimal"`
	Ratio      float64                 `json:"ratio"`
	Planner    *datacache.PlannerStats `json:"planner,omitempty"`
}

// SessionTraceResponse is the GET {id}/trace reply: the bounded ring of
// the session's most recent decision events, oldest first.
type SessionTraceResponse struct {
	ID      string                 `json:"id"`
	Cap     int                    `json:"cap"`
	Dropped int                    `json:"dropped"` // events evicted by the ring bound
	Events  []datacache.TraceEvent `json:"events"`
}

// SessionDecision is the reply to one served request.
type SessionDecision struct {
	ID      string         `json:"id"`
	N       int            `json:"n"`
	Server  model.ServerID `json:"server"`
	Time    float64        `json:"time"`
	Hit     bool           `json:"hit"`
	From    model.ServerID `json:"from,omitempty"` // transfer source on a miss
	Cost    float64        `json:"cost"`
	Optimal float64        `json:"optimal"`
	Ratio   float64        `json:"ratio"`
	Regret  float64        `json:"regret"` // online cost delta − optimum delta
}

// SessionCloseResponse is the DELETE reply: final state plus the realized
// schedule.
type SessionCloseResponse struct {
	State    SessionState    `json:"state"`
	Schedule *model.Schedule `json:"schedule"`
}

// SessionSLOResponse is the GET {id}/slo reply: the rolling-window SLO
// reading plus the per-server cost attribution, alongside the cumulative
// numbers for comparison.
type SessionSLOResponse struct {
	ID        string                 `json:"id"`
	Policy    string                 `json:"policy"`
	Cost      float64                `json:"cost"`
	Optimal   float64                `json:"optimal"`
	Ratio     float64                `json:"ratio"`
	SLO       datacache.SLOSnapshot  `json:"slo"`
	Breakdown []datacache.ServerCost `json:"breakdown"`
}

// SessionShadowResponse is the GET {id}/shadow reply: the session's
// cumulative readout plus the full counterfactual standings (live policy
// first, Best marking the minimum-cost line).
type SessionShadowResponse struct {
	ID      string  `json:"id"`
	Policy  string  `json:"policy"`
	N       int     `json:"n"`
	Cost    float64 `json:"cost"`
	Optimal float64 `json:"optimal"`
	Ratio   float64 `json:"ratio"`
	datacache.ShadowReport
}

// SessionAlert is one session's standing on one alert rule, as listed by
// GET /v1/alerts.
type SessionAlert struct {
	Session string          `json:"session"`
	Alert   datacache.Alert `json:"alert"`
}

// AlertsResponse is the GET /v1/alerts reply. Alerts lists every
// non-inactive rule across live sessions, firing first, then pending,
// then resolved, ties broken by session id.
type AlertsResponse struct {
	Firing int            `json:"firing"`
	Alerts []SessionAlert `json:"alerts"`
}

// ReadyResponse is the GET /readyz reply: "ready" normally, "degraded"
// while any session's SLO alert is firing. The status code stays 200
// either way — a degraded SLO means the policy is pricing badly, not
// that the process should be restarted.
type ReadyResponse struct {
	Status       string `json:"status"`
	Version      string `json:"version"`
	SessionsOpen int    `json:"sessionsOpen"`
	FiringAlerts int    `json:"firingAlerts"`
}

func sessionState(id string, sess *datacache.Session) SessionState {
	st := SessionState{
		ID:         id,
		Policy:     sess.Policy(),
		N:          sess.N(),
		Hits:       sess.Hits(),
		Transfers:  sess.Transfers(),
		LiveCopies: sess.LiveCopies(),
		Cost:       sess.Cost(),
		Optimal:    sess.OptimalCost(),
		Ratio:      sess.Ratio(),
	}
	if ps, ok := sess.PlannerStats(); ok {
		st.Planner = &ps
	}
	return st
}

// engineObserver feeds every decision event of one session into the
// kind-labeled engine counters and the unit's per-serve event buffer.
// The counters are pre-resolved atomics, and the buffer append happens
// under the entry lock every Serve already holds, so observation adds no
// locks to the serving path.
func (s *Server) engineObserver(u *liveSession) datacache.Observer {
	return obs.ObserverFunc(func(ev obs.Event) {
		if k := int(ev.Kind); k >= 0 && k < len(s.engineEventK) {
			s.engineEventK[k].Inc()
		}
		u.evs = append(u.evs, ev)
	})
}

// eventsLabel joins decision-event kinds into the span annotation, e.g.
// "request,transfer" or "drop,drop,request,hit".
func eventsLabel(evs []obs.Event) string {
	var b strings.Builder
	for i, ev := range evs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ev.Kind.String())
	}
	return b.String()
}

// decisionLabel names the serve outcome for span search.
func decisionLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "transfer"
}

// shadowDivergenceLabel joins the labels of the shadow policies whose
// decision diverged from the live one (bit i of mask ↔ names[i]), e.g.
// "migrate,ttl:window=0.5". Empty when every shadow agreed.
func shadowDivergenceLabel(names []string, mask uint64) string {
	if mask == 0 {
		return ""
	}
	var b strings.Builder
	for i, name := range names {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
	}
	return b.String()
}

// annotateServeSpan fills one serve child span from a decision and ends
// it. shadows names the shadow policies that decided this request
// differently (empty when unshadowed or unanimous). Nil-span safe, so
// untraced paths pay only the calls.
func annotateServeSpan(sp *obs.Span, id string, d datacache.Decision, events, shadows string) {
	if sp == nil {
		return
	}
	sp.Session = id
	sp.Server = int(d.Server)
	sp.Decision = decisionLabel(d.Hit)
	sp.Events = events
	sp.Drops = d.Drops
	sp.Shadows = shadows
	sp.Regret = d.Regret
	sp.End()
}

// publish refreshes the per-session metric series after a state change.
func (u *liveSession) publish(s *Server, id string, ss seriesSet) {
	ss.set(s.sessionCost, u.Cost(), id)
	ss.set(s.sessionOpt, u.OptimalCost(), id)
	ss.set(s.sessionRatio, u.Ratio(), id)
	ss.set(s.sessionLive, float64(u.LiveCopies()), id)

	// Per-server attribution: only servers that have accrued cost or hold
	// a copy get a series, so an m=100 session with three active servers
	// exports six cost series, not two hundred.
	for _, sc := range u.CostBreakdown() {
		if !sc.Live && sc.Caching == 0 && sc.Transfers == 0 {
			continue
		}
		srv := strconv.Itoa(int(sc.Server))
		ss.set(s.serverCost, sc.Caching, id, srv, "caching")
		ss.set(s.serverCost, sc.Transfer, id, srv, "transfer")
	}

	// Every alert rule's state is written here from create on, so the
	// series the transition hooks refresh are always recorded for
	// retirement.
	if slo := u.SLO(); slo != nil {
		ss.set(s.sessionWRat, slo.WindowedRatio(), id)
		for _, a := range slo.Alerts() {
			ss.set(s.alertState, float64(a.State), id, a.Rule.Name)
		}
	}

	if st, ok := u.PlannerStats(); ok {
		ss.set(s.plannerHitRat, st.PredictedHitRatio, id)
		ss.set(s.plannerDepth, float64(st.PlanDepth), id)
		ss.set(s.plannerConf, st.Confidence, id)
		ss.set(s.plannerPlans, float64(st.Plans), id)
		ss.set(s.plannerMispred, float64(st.Mispredicts), id)
		if a, ok := u.PlannerAlert(); ok {
			ss.set(s.alertState, float64(a.State), id, a.Rule.Name)
		}
	}

	// Shadow standings: every policy is priced by the same O(M) Cost.
	if names := u.ShadowNames(); len(names) > 0 {
		ss.shadows(s.sessionShadow, id, names, u.ShadowCost, u.Policy(), u.Cost(), u.OptimalCost())
		if a, ok := u.ShadowAlert(); ok {
			ss.set(s.alertState, float64(a.State), id, a.Rule.Name)
		}
	}
}

// sessionServe is one POST /v1/session/{id}/request operation.
type sessionServe struct {
	id     string
	u      *liveSession
	req    StreamAppendRequest
	d      datacache.Decision
	n      int
	events string
}

func (o *sessionServe) serve(context.Context) (int, error) {
	o.u.evs = o.u.evs[:0]
	d, err := o.u.Serve(o.req.Server, o.req.Time)
	if err != nil {
		return 0, err
	}
	o.d, o.n, o.events = d, o.u.N(), eventsLabel(o.u.evs)
	return 1, nil
}

func (o *sessionServe) decision(int) (datacache.Decision, string) { return o.d, o.events }

func (o *sessionServe) reply() interface{} {
	return SessionDecision{
		ID:      o.id,
		N:       o.n,
		Server:  o.d.Server,
		Time:    o.d.Time,
		Hit:     o.d.Hit,
		From:    o.d.From,
		Cost:    o.d.Cost,
		Optimal: o.d.Optimal,
		Ratio:   o.d.Ratio,
		Regret:  o.d.Regret,
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
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
	u := &liveSession{}
	// The id is minted before the session exists so the recorder stream
	// is declared under it from the first record.
	id := fmt.Sprintf("sn-%d", s.nextID.Add(1))
	sess, err := datacache.NewSession(req.M, req.Origin, req.Model.toModel(), &datacache.SessionOptions{
		Policy:         req.Policy,
		Window:         req.Window,
		EpochTransfers: req.Epoch,
		TraceCap:       s.traceCap,
		SLOWindow:      s.sloWindow,
		Observer:       s.engineObserver(u),
		ShadowPolicies: shadows,
		ShadowMargin:   s.shadowMargin,
		Recorder:       s.recorder,
		RecordSession:  id,
	})
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	u.Session = sess
	if slo := sess.SLO(); slo != nil {
		// The hook runs under the entry lock of whichever Serve triggers
		// the transition; the gauge and counter writes are lock-free.
		slo.SetTransitionHook(s.alertHook(id))
	}
	if _, ok := sess.ShadowAlert(); ok {
		// The shadow_beats_live rule shares the SLO rules' gauge, counter
		// and WARN-log plumbing, and is retired with them on close.
		sess.SetShadowTransitionHook(s.alertHook(id))
	}
	if _, ok := sess.PlannerAlert(); ok {
		// Likewise planner_worse_than_sc on hybrid sessions.
		sess.SetPlannerTransitionHook(s.alertHook(id))
	}
	entry := newServingEntry("session", id, u)
	// Published before registering: no other request can reach the
	// entry yet, and a racing DELETE cannot retire the series first.
	u.publish(s, id, entry.series)
	s.sessions.put(id, entry)
	s.sessionsOpen.Add(1)
	w.Header().Set("Location", "/v1/session/"+id)
	writeJSON(w, http.StatusCreated, sessionState(id, sess))
}

// alertHook builds the transition hook every alert tracker of a session
// shares (SLO rules and shadow_beats_live alike): refresh the state
// gauge, count the transition, and WARN-log it. The hook runs under the
// entry lock of whichever Serve triggers the transition; the gauge and
// counter writes are lock-free.
func (s *Server) alertHook(id string) obs.TransitionHook {
	return func(rule datacache.AlertRule, from, to datacache.AlertState, at, value float64) {
		s.alertState.With(id, rule.Name).Set(float64(to))
		s.alertTrans.With(rule.Name, to.String()).Inc()
		// Pin the transition onto the history timeline (wall-clock
		// stamped by the store), linking a firing alert to the
		// session's highest-regret retained trace as the exemplar a
		// responder should open first.
		ann := tsdb.Annotation{
			Scope: id, Rule: rule.Name, From: from, To: to,
			Value: value, ModelAt: at,
		}
		if to == datacache.AlertFiring {
			if ts := s.tracer.Traces(obs.TraceQuery{Session: id, Limit: 1}); len(ts) > 0 {
				ann.TraceID = ts[0].TraceID
			}
		}
		s.history.Annotate(ann)
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "slo alert transition",
			slog.String("session", id),
			slog.String("alert", rule.Name),
			slog.String("from", from.String()),
			slog.String("to", to.String()),
			slog.Float64("at", at),
			slog.Float64("value", value),
		)
	}
}

func (s *Server) handleSessionOp(w http.ResponseWriter, r *http.Request) {
	entry, id, op, ok := lookup(s, w, r, s.sessions, "session")
	if !ok {
		return
	}
	u := entry.unit
	switch {
	case op == "request" && r.Method == http.MethodPost:
		serveOne(s, w, r, entry, func(req StreamAppendRequest) serveOp {
			return &sessionServe{id: id, u: u, req: req}
		})
	case op == "requests" && r.Method == http.MethodPost:
		serveBatch(s, w, r, entry, func(items []BatchRequestItem) serveOp {
			reqs := make([]model.Request, len(items))
			for i, it := range items {
				reqs[i] = model.Request{Server: it.Server, Time: it.at()}
			}
			return &sessionBatch{id: id, u: u, reqs: reqs}
		})
	case op == "" && r.Method == http.MethodGet:
		if !entry.lock(s, w, r) {
			return
		}
		state := sessionState(id, u.Session)
		entry.lk.unlock()
		writeJSON(w, http.StatusOK, state)
	case op == "schedule" && r.Method == http.MethodGet:
		if !entry.lock(s, w, r) {
			return
		}
		sched := u.Schedule()
		entry.lk.unlock()
		writeJSON(w, http.StatusOK, sched)
	case op == "trace" && r.Method == http.MethodGet:
		if !entry.lock(s, w, r) {
			return
		}
		events := u.Trace()
		dropped := u.TraceDropped()
		entry.lk.unlock()
		if events == nil {
			events = []datacache.TraceEvent{} // render [] rather than null
		}
		writeJSON(w, http.StatusOK, SessionTraceResponse{
			ID: id, Cap: s.traceCap, Dropped: dropped, Events: events,
		})
	case op == "slo" && r.Method == http.MethodGet:
		if !entry.lock(s, w, r) {
			return
		}
		slo := u.SLO()
		var snap datacache.SLOSnapshot
		if slo != nil {
			snap = slo.Snapshot()
		}
		breakdown := u.CostBreakdown()
		state := sessionState(id, u.Session)
		entry.lk.unlock()
		if slo == nil {
			s.httpError(w, r, http.StatusNotFound, fmt.Errorf("session %q has SLO tracking disabled", id))
			return
		}
		writeJSON(w, http.StatusOK, SessionSLOResponse{
			ID:        id,
			Policy:    state.Policy,
			Cost:      state.Cost,
			Optimal:   state.Optimal,
			Ratio:     state.Ratio,
			SLO:       snap,
			Breakdown: breakdown,
		})
	case op == "shadow" && r.Method == http.MethodGet:
		if !entry.lock(s, w, r) {
			return
		}
		rep := u.ShadowReport()
		state := sessionState(id, u.Session)
		entry.lk.unlock()
		if rep == nil {
			s.httpError(w, r, http.StatusNotFound, fmt.Errorf("session %q has no shadow policies", id))
			return
		}
		writeJSON(w, http.StatusOK, SessionShadowResponse{
			ID:           id,
			Policy:       state.Policy,
			N:            state.N,
			Cost:         state.Cost,
			Optimal:      state.Optimal,
			Ratio:        state.Ratio,
			ShadowReport: *rep,
		})
	case op == "record" && r.Method == http.MethodGet:
		s.handleRecordDownload(w, r, id)
	case op == "" && r.Method == http.MethodDelete:
		if !entry.lock(s, w, r) {
			return
		}
		sched, err := u.Close()
		state := sessionState(id, u.Session)
		entry.lk.unlock()
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		if s.sessions.delete(id) { // racing DELETEs must tear down once
			s.sessionsOpen.Add(-1)
			entry.retire(s.tracer)
		}
		writeJSON(w, http.StatusOK, SessionCloseResponse{State: state, Schedule: sched})
	default:
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown session operation %q %s", op, r.Method))
	}
}

// collectAlerts snapshots every live session's non-inactive alerts. The
// registry iteration is shard-local — it snapshots one shard at a time
// under that shard's read lock, then takes each entry lock in turn, so a
// full alert sweep never stalls serving on more than one session at a
// time.
func (s *Server) collectAlerts() ([]SessionAlert, int) {
	var out []SessionAlert
	firing := 0
	s.sessions.forEach(func(id string, entry *servingEntry[*liveSession]) {
		_ = entry.lk.lock(context.Background())
		// Merged standings: SLO rules plus the shadow_beats_live rule.
		alerts := entry.unit.Alerts()
		entry.lk.unlock()
		for _, a := range alerts {
			if a.State == datacache.AlertInactive {
				continue
			}
			if a.State == datacache.AlertFiring {
				firing++
			}
			out = append(out, SessionAlert{Session: id, Alert: a})
		}
	})
	// Metric anomalies from the history store ride the same listing;
	// their Session field carries the watched series key.
	for _, a := range s.history.AnomalyAlerts() {
		if a.Alert.State == datacache.AlertFiring {
			firing++
		}
		out = append(out, SessionAlert{Session: a.Series, Alert: a.Alert})
	}
	// Firing first, then pending, then resolved; stable within a state.
	rank := map[datacache.AlertState]int{
		datacache.AlertFiring:   0,
		datacache.AlertPending:  1,
		datacache.AlertResolved: 2,
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank[out[i].Alert.State], rank[out[j].Alert.State]
		if ri != rj {
			return ri < rj
		}
		return out[i].Session < out[j].Session
	})
	return out, firing
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	alerts, firing := s.collectAlerts()
	if alerts == nil {
		alerts = []SessionAlert{} // render [] rather than null
	}
	writeJSON(w, http.StatusOK, AlertsResponse{Firing: firing, Alerts: alerts})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	_, firing := s.collectAlerts()
	open := s.sessions.len()
	status := "ready"
	if firing > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, ReadyResponse{
		Status:       status,
		Version:      Version,
		SessionsOpen: open,
		FiringAlerts: firing,
	})
}
