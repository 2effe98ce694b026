package service

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"datacache"
	"datacache/internal/obs"
)

// A session serves one instance of the paper's single-item problem and a
// pool serves many, one per (tenant, item) key; over HTTP both are one
// serving unit behind one servingEntry. The entry owns the plumbing every
// serve operation shares: inflight admission, the context-aware entry
// lock, the closed check, span and recorder stamping, gauge publishing
// and, on close, series retirement. Each kind supplies only its serve
// call, its gauges and its DTO mapping.

// servingUnit is the kind-specific side of a serving entry: a session or
// a pool, wrapped so it can publish its own gauges.
type servingUnit interface {
	Closed() bool
	SetRecordTraceID(traceID string)
	// ShadowNames labels the bits of Decision.ShadowDiverged; it is
	// immutable after create, so it is safe to read outside the lock.
	ShadowNames() []string
	// publish refreshes the unit's metric series through ss. The caller
	// holds the entry lock (or owns the entry before registering it).
	publish(s *Server, id string, ss seriesSet)
}

// servingEntry wraps one serving unit with a context-aware lock, so
// operations on different entries never serialize anywhere: the registry
// shard lock is held only for the lookup, and a client that disconnects
// while queued abandons the entry lock. inflight counts the serve
// operations (single requests and batches) queued against the entry;
// work beyond the server's inflight budget is shed with 429 before it
// touches the lock. series records every metric label set the entry has
// published, so closing retires exactly those.
type servingEntry[U servingUnit] struct {
	kind     string // "session" or "pool", for error messages
	id       string
	unit     U
	lk       entryLock
	inflight atomic.Int64
	series   seriesSet
}

func newServingEntry[U servingUnit](kind, id string, unit U) *servingEntry[U] {
	return &servingEntry[U]{kind: kind, id: id, unit: unit, lk: newEntryLock(), series: seriesSet{}}
}

// lock acquires the entry lock honoring the request context: a client
// that disconnects while queued behind a long batch stops waiting. On
// failure the 499 envelope has already been written.
func (e *servingEntry[U]) lock(s *Server, w http.ResponseWriter, r *http.Request) bool {
	if err := e.lk.lock(r.Context()); err != nil {
		s.httpError(w, r, StatusClientClosedRequest,
			fmt.Errorf("client gone while waiting for %s lock: %v", e.kind, err))
		return false
	}
	return true
}

// serveOp is the kind- and route-specific half of one serve operation.
type serveOp interface {
	// serve runs under the entry lock on an open unit and reports how
	// many decisions applied; an error fails the whole operation.
	serve(ctx context.Context) (applied int, err error)
	// decision returns applied decision i and its engine-event label for
	// the request's serve span.
	decision(i int) (datacache.Decision, string)
	// reply is the 200 body, built after the entry lock is released.
	reply() interface{}
}

// serve runs op through the one serving path: admit against the inflight
// budget (429 with a Retry-After hint, before the lock is touched), lock
// (499), closed check (409), root span and recorder trace id, serve,
// publish, unlock, decision-latency observation and one serve child span
// per applied decision. A failed op.serve answers failStatus. It reports
// whether the operation succeeded; the caller then writes op.reply().
func (e *servingEntry[U]) serve(s *Server, w http.ResponseWriter, r *http.Request, op serveOp, failStatus int) bool {
	if e.inflight.Add(1) > s.inflight {
		e.inflight.Add(-1)
		s.batchShed.Inc()
		w.Header().Set("Retry-After", "1")
		s.httpError(w, r, http.StatusTooManyRequests,
			fmt.Errorf("%s %q has %d serve operations inflight (budget %d)", e.kind, e.id, s.inflight, s.inflight))
		return false
	}
	defer e.inflight.Add(-1)
	if !e.lock(s, w, r) {
		return false
	}
	if e.unit.Closed() {
		e.lk.unlock()
		s.httpError(w, r, http.StatusConflict, fmt.Errorf("%s %q is closed", e.kind, e.id))
		return false
	}
	root := obs.SpanFrom(r.Context())
	if root != nil {
		root.Session = e.id
		e.unit.SetRecordTraceID(root.TraceID)
	}
	start := time.Now()
	applied, err := op.serve(r.Context())
	elapsed := time.Since(start)
	if applied > 0 {
		e.unit.publish(s, e.id, e.series)
	}
	e.lk.unlock()
	if err != nil {
		if sp := root.StartChild("serve"); sp != nil {
			sp.Start = start
			sp.Session = e.id
			sp.Error = true
			sp.End()
		}
		s.httpError(w, r, failStatus, err)
		return false
	}
	if applied == 0 {
		return true
	}
	// One latency sample per operation: the mean per-decision latency,
	// which for a single request is its own.
	perDecision := elapsed.Seconds() / float64(applied)
	if root.Sampled() {
		s.decisionSec.ObserveExemplar(perDecision, root.TraceID)
	} else {
		s.decisionSec.Observe(perDecision)
	}
	if root != nil {
		names := e.unit.ShadowNames()
		for i := 0; i < applied; i++ {
			d, events := op.decision(i)
			sp := root.StartChild("serve")
			sp.Start = start
			annotateServeSpan(sp, e.id, d, events, shadowDivergenceLabel(names, d.ShadowDiverged))
			// Requests inside a batch are not timed separately; each
			// child carries the operation's mean per-decision latency.
			sp.Duration = perDecision
		}
	}
	return true
}

// serveOne is the POST {id}/request route of either kind: decode one
// request body of type T and serve the op newOp builds from it.
func serveOne[T any, U servingUnit](s *Server, w http.ResponseWriter, r *http.Request, e *servingEntry[U], newOp func(T) serveOp) {
	var req T
	if !s.readJSON(w, r, &req) {
		return
	}
	op := newOp(req)
	if e.serve(s, w, r, op, http.StatusBadRequest) {
		writeJSON(w, http.StatusOK, op.reply())
	}
}

// retire deletes every metric series the entry published and its
// retained spans, once the unit is closed and out of the registry. It
// takes the entry lock itself; callers must not hold it.
func (e *servingEntry[U]) retire(tracer *obs.Tracer) {
	_ = e.lk.lock(context.Background()) // never fails: the context cannot be canceled
	refs := make([]seriesRef, 0, len(e.series))
	for _, ref := range e.series {
		refs = append(refs, ref)
	}
	e.lk.unlock()
	for _, ref := range refs {
		ref.vec.Delete(ref.labels[:ref.n]...)
	}
	tracer.DropSession(e.id)
}

// seriesSet records every metric series an entry has published. It is
// keyed by the series' handle (*obs.Gauge or *obs.Counter), which the
// family keeps stable until the series is deleted, so recording a series
// already seen is one pointer-keyed lookup.
type seriesSet map[interface{}]seriesRef

// seriesRef is what deleting one series takes: its family and labels.
type seriesRef struct {
	vec    interface{ Delete(values ...string) }
	labels [3]string // the first n hold the label values
	n      int
}

// add records the series handle of vec under labels.
func (ss seriesSet) add(handle interface{}, vec interface{ Delete(values ...string) }, labels ...string) {
	if _, ok := ss[handle]; ok {
		return
	}
	ref := seriesRef{vec: vec}
	ref.n = copy(ref.labels[:], labels)
	ss[handle] = ref
}

// set writes one gauge series and records it.
func (ss seriesSet) set(vec *obs.GaugeVec, v float64, labels ...string) {
	g := vec.With(labels...)
	g.Set(v)
	ss.add(g, vec, labels...)
}

// shadowVecs are the counterfactual-standing families of one kind.
type shadowVecs struct{ cost, ratio, best *obs.GaugeVec }

// shadows writes every shadow policy's cost and cost over optimum, then
// the best-policy rows: 1 on the cheapest policy, the live one included.
// The live row is written last: a shadow may share the live policy's
// label (the self-check configuration) and must not clobber a winning
// live row.
func (ss seriesSet) shadows(v shadowVecs, id string, names []string, shadowCost func(i int) float64, live string, liveCost, opt float64) {
	bestIdx, bestCost := -1, liveCost // -1: the live policy is winning
	for i, name := range names {
		c := shadowCost(i)
		ss.set(v.cost, c, id, name)
		ss.set(v.ratio, costOverOpt(c, opt), id, name)
		if c < bestCost {
			bestIdx, bestCost = i, c
		}
	}
	for i, name := range names {
		ss.set(v.best, boolGauge(i == bestIdx), id, name)
	}
	if bestIdx < 0 {
		ss.set(v.best, 1, id, live)
	} else if live != names[bestIdx] {
		ss.set(v.best, 0, id, live)
	}
}

// costOverOpt is the gauge-side competitive ratio (1 while the optimum
// is zero, matching datacache's convention).
func costOverOpt(cost, opt float64) float64 {
	if opt > 0 {
		return cost / opt
	}
	return 1
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
