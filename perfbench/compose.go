package main

import (
	"container/list"
	"fmt"

	"datacache"
	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/offline"
	"datacache/internal/planner"
	"datacache/internal/recorder"
	"datacache/internal/service"
)

// timedDecider wraps the live decider so its OnRequest gets its own span
// inside engine.decide.
type timedDecider struct {
	engine.Decider
	tr *layerTracer
}

func (d timedDecider) OnRequest(server model.ServerID, t float64) ([]engine.Action, error) {
	d.tr.begin(lPlanner)
	acts, err := d.Decider.OnRequest(server, t)
	d.tr.end()
	return acts, err
}

// sessionSetup is the per-session configuration of a replay: the
// workload's live policy and, for mobile_batch, its shadow panel and
// flight recorder. poolItem selects the options the service gives a
// pool's per-item sessions: no decision-trace ring and no per-item SLO
// (the pool tracks SLOs per tenant).
type sessionSetup struct {
	hybrid   bool
	shadows  bool
	recorder bool
	poolItem bool
}

func (c sessionSetup) options(rec *recorder.Writer) *datacache.SessionOptions {
	o := &datacache.SessionOptions{Policy: "sc", TraceCap: service.DefaultTraceCap, SLOWindow: service.DefaultSLOWindow, Recorder: rec}
	if c.hybrid {
		o.Policy = mobilePolicy
	}
	if c.shadows {
		sh, err := datacache.WithShadowPolicies(mobileShadows...)
		if err != nil {
			panic(err) // unreachable: the panel is a constant
		}
		o.ShadowPolicies = sh
	}
	return o
}

// layered is one session composed from the layers directly, mirroring
// datacache.NewSession and Session.Serve.
type layered struct {
	tr        *layerTracer
	stream    *engine.Stream
	inc       *offline.Incremental
	slo       *obs.SLO
	ss        *engine.ShadowSet
	shadowTk  *obs.Tracker
	planTk    *obs.Tracker
	scIdx     int
	hybrid    *planner.Hybrid
	rec       *recorder.Writer
	recStream uint32

	prevCost, prevOpt float64
	cost, opt         float64
	n, hits, diverged int
	priceDurs         []float64
}

func newLayered(tr *layerTracer, setup sessionSetup, rec *recorder.Writer) (*layered, error) {
	st := engine.State{M: numServers, Origin: origin, Model: costModel}
	s := &layered{tr: tr, scIdx: -1, rec: rec}
	var d engine.Decider = &engine.SC{}
	if setup.hybrid {
		s.hybrid = &planner.Hybrid{Horizon: 8, Order: 2}
		d = timedDecider{Decider: s.hybrid, tr: tr}
	}
	var err error
	if s.stream, err = engine.NewStream(d, st); err != nil {
		return nil, err
	}
	if s.inc, err = offline.NewIncremental(numServers, origin, costModel); err != nil {
		return nil, err
	}
	if !setup.poolItem {
		s.stream.SetObserver(&obs.Ring{Cap: service.DefaultTraceCap})
		s.slo = obs.NewSLO(service.DefaultSLOWindow, obs.Theorem3Rule())
	}
	if setup.shadows {
		ds := []engine.ShadowDecider{
			{Name: "ttl:window=0.5", D: &engine.SC{Window: 0.5}},
			{Name: "sc:epoch=16", D: &engine.SC{EpochTransfers: 16}},
			{Name: "migrate", D: &engine.Migrate{}},
			{Name: "replicate", D: &engine.Replicate{}},
		}
		if setup.hybrid {
			// The hybrid live policy's implicit sc self-check shadow.
			s.scIdx = len(ds)
			ds = append(ds, engine.ShadowDecider{Name: "sc", D: &engine.SC{}})
		}
		if s.ss, err = engine.NewShadowSet(st, service.DefaultSLOWindow, ds); err != nil {
			return nil, err
		}
		rule := obs.Rule{Threshold: 1 + datacache.DefaultShadowMargin, Hysteresis: datacache.DefaultShadowMargin / 2, For: 3}
		s.shadowTk = obs.NewTracker(rule)
		if s.scIdx >= 0 {
			s.planTk = obs.NewTracker(rule)
		}
	}
	if s.rec != nil {
		s.recStream = s.rec.OpenStream(recorder.StreamInfo{M: numServers, Origin: origin, Mu: costModel.Mu, Lambda: costModel.Lambda, Policy: "traced"})
	}
	return s, nil
}

// serve runs one request through the layers in Session.Serve's order.
func (s *layered) serve(server model.ServerID, t float64) error {
	tr := s.tr
	tr.begin(lServe)
	defer tr.end()
	tr.begin(lDecide)
	ed, err := s.stream.Serve(server, t)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(lAppend)
	err = s.inc.Append(model.Request{Server: server, Time: t})
	opt := s.inc.Cost()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(lPrice)
	cost := s.stream.Cost(costModel)
	s.priceDurs = append(s.priceDurs, float64(tr.end()))
	if s.ss != nil {
		tr.begin(lShadows)
		mask := s.ss.Serve(server, t, ed, cost)
		if _, best := s.ss.BestWindowed(); best > 0 {
			s.shadowTk.Observe(t, s.ss.LiveWindowedCost()/best)
		}
		if s.planTk != nil {
			if sc := s.ss.WindowedCost(s.scIdx); sc > 0 {
				s.planTk.Observe(t, s.ss.LiveWindowedCost()/sc)
			}
		}
		tr.end()
		if mask != 0 {
			s.diverged++
		}
	}
	if s.slo != nil {
		tr.begin(lSLO)
		s.slo.Observe(t, cost-s.prevCost, opt-s.prevOpt)
		tr.end()
	}
	s.prevCost, s.prevOpt = cost, opt
	if s.rec != nil {
		tr.begin(lRecorder)
		_ = s.rec.Append(recorder.Record{
			Kind: recorder.KindServe, Stream: s.recStream, Time: t, Server: int(server),
			From: int(ed.From), Hit: ed.Hit, Drops: ed.Drops, Cost: cost, Optimal: opt,
		})
		tr.end()
	}
	s.cost, s.opt = cost, opt
	s.n++
	if ed.Hit {
		s.hits++
	}
	return nil
}

// layeredPool mirrors datacache.Pool.Serve over layered sessions: lazy
// per-key instantiation and least-recently-served eviction at MaxItems.
type layeredPool struct {
	tr        *layerTracer
	items     map[string]*poolSlot
	lru       *list.List
	tenant    *obs.SLO // the pool's one tenant's windowed-ratio tracker
	live      int
	sessions  []*layered
	cost, opt float64
}

func newLayeredPool(tr *layerTracer) *layeredPool {
	return &layeredPool{tr: tr, items: map[string]*poolSlot{}, lru: list.New(), tenant: obs.NewSLO(service.DefaultSLOWindow)}
}

type poolSlot struct {
	sess *layered
	elem *list.Element
}

func (p *layeredPool) serve(item string, server model.ServerID, t float64) error {
	p.tr.begin(lPool)
	defer p.tr.end()
	slot := p.items[item]
	if slot == nil {
		slot = &poolSlot{}
		p.items[item] = slot
	}
	if slot.sess == nil {
		for p.live >= poolMaxItems {
			back := p.lru.Back()
			old := back.Value.(*poolSlot)
			if _, err := old.sess.stream.Finish(old.sess.stream.Now()); err != nil {
				return err
			}
			old.sess = nil
			p.lru.Remove(back)
			p.live--
		}
		s, err := newLayered(p.tr, sessionSetup{poolItem: true}, nil)
		if err != nil {
			return err
		}
		p.sessions = append(p.sessions, s)
		slot.sess = s
		slot.elem = p.lru.PushFront(slot)
		p.live++
	} else {
		p.lru.MoveToFront(slot.elem)
	}
	s := slot.sess
	c0, o0 := s.cost, s.opt
	if err := s.serve(server, t); err != nil {
		return err
	}
	dc, do := s.cost-c0, s.opt-o0
	p.tr.begin(lSLO)
	p.tenant.Observe(t, dc, do)
	p.tr.end()
	p.cost += dc
	p.opt += do
	return nil
}

// composed is what one replay through the composed layers produced.
type composed struct {
	sessions []*layered
	costs    []float64
	recStats recorder.Stats
	stateB   float64 // heap retained by the streaming DP state
}

// composedPass replays in through the layers, publishing the per-serve
// gauges into a registry the way the service does.
func composedPass(tr *layerTracer, in tracedInput, workdir string) (*composed, error) {
	out := &composed{}
	reg := obs.NewRegistry()
	gCost := reg.GaugeVec("dc_session_cost", "", "session")
	gOpt := reg.GaugeVec("dc_session_optimal_cost", "", "session")
	gRatio := reg.GaugeVec("dc_session_cost_over_optimum", "", "session")
	gLive := reg.GaugeVec("dc_session_live_copies", "", "session")
	gWin := reg.GaugeVec("dc_session_windowed_ratio", "", "session")
	rec, done, err := withRecorder(workdir, in.setup.recorder)
	if err != nil {
		return nil, err
	}
	idx := 0
	if in.pool != nil {
		p := newLayeredPool(tr)
		for _, r := range in.pool {
			tr.request(idx)
			idx++
			if err := p.serve(r.Item, r.Server, r.Time); err != nil {
				return nil, err
			}
			tr.begin(lPublish)
			gCost.With("pl-1").Set(p.cost)
			gOpt.With("pl-1").Set(p.opt)
			gRatio.With("pl-1").Set(p.cost / p.opt)
			gLive.With("pl-1").Set(float64(p.live))
			tr.end()
			tr.end()
		}
		out.sessions = p.sessions
		out.costs = []float64{p.cost}
	} else {
		for k, stream := range in.sessions {
			s, err := newLayered(tr, in.setup, rec)
			if err != nil {
				return nil, err
			}
			id := fmt.Sprintf("sn-%d", k+1)
			for _, r := range stream {
				tr.request(idx)
				idx++
				if err := s.serve(r.Server, r.Time); err != nil {
					return nil, err
				}
				tr.begin(lPublish)
				gCost.With(id).Set(s.cost)
				gOpt.With(id).Set(s.opt)
				gRatio.With(id).Set(s.cost / s.opt)
				gLive.With(id).Set(float64(s.stream.Live()))
				gWin.With(id).Set(s.slo.WindowedRatio())
				tr.end()
				tr.end()
			}
			out.sessions = append(out.sessions, s)
			out.costs = append(out.costs, s.cost)
		}
	}
	// Heap the streaming DP retains: drop every Incremental and compare.
	withDP := heapAfterGC()
	for _, s := range out.sessions {
		s.inc = nil
	}
	out.stateB = withDP - heapAfterGC()
	if out.recStats, err = done(); err != nil {
		return nil, err
	}
	return out, nil
}
