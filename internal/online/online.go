// Package online implements the paper's online side: the 3-competitive
// Speculative Caching (SC) algorithm of Section V, the TTL(τ) family it
// belongs to, simple online baselines, and the analysis machinery of the
// competitiveness proof (the Double-Transfer transform of Definition 10 and
// the V-/H-reductions of Definitions 11 and 12) as executable checks.
//
// Every policy consumes requests strictly in time order with no lookahead
// and emits a model.Schedule, so the offline validator and cost accounting
// apply unchanged; the competitive ratio of a run is simply the policy's
// schedule cost divided by the FastDP optimum.
package online

import (
	"fmt"

	"datacache/internal/engine"
	"datacache/internal/model"
)

// Runner is an online caching policy: it serves a request sequence with no
// knowledge of future requests and returns the schedule it produced. The
// schedule's caching costs are truncated at the horizon t_n so that policies
// are compared with the off-line optimum over the same window.
type Runner interface {
	// Name identifies the policy in reports.
	Name() string
	// Run serves the sequence online and returns a feasible schedule.
	Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error)
}

// Stats summarizes one online run for reports and tests.
type Stats struct {
	Requests  int
	CacheHits int     // requests served by a live local copy
	Transfers int     // requests served by a transfer
	Expiries  int     // copies deleted before the horizon (expired or evicted)
	Cost      float64 // total cost over [0, t_n]
}

// Result bundles a run's schedule with its statistics.
type Result struct {
	Policy   string
	Schedule *model.Schedule
	Stats    Stats
}

// Replay validates the instance and replays it through d — the body of
// every engine-backed Runner.
func Replay(d engine.Decider, seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	return engine.Replay(d, seq, cm)
}

// Run executes a policy and prices its schedule, validating feasibility.
func Run(p Runner, seq *model.Sequence, cm model.CostModel) (*Result, error) {
	sched, err := p.Run(seq, cm)
	if err != nil {
		return nil, fmt.Errorf("online: %s: %w", p.Name(), err)
	}
	if err := sched.Validate(seq); err != nil {
		return nil, fmt.Errorf("online: %s produced an infeasible schedule: %w", p.Name(), err)
	}
	res := &Result{Policy: p.Name(), Schedule: sched}
	res.Stats.Requests = seq.N()
	res.Stats.Cost = sched.Cost(cm)
	res.Stats.Transfers = len(sched.Transfers)
	res.Stats.CacheHits = seq.N() - countServedByTransfer(seq, sched)
	end := seq.End()
	for _, h := range sched.Caches {
		if h.To < end-1e-12 {
			res.Stats.Expiries++
		}
	}
	return res, nil
}

// countServedByTransfer counts requests coinciding with a transfer into
// their server, in O(n+T) through a set of transfer (target, time) keys.
func countServedByTransfer(seq *model.Sequence, s *model.Schedule) int {
	into := make(map[model.Transfer]bool, len(s.Transfers)) // keyed with From zeroed
	for _, tr := range s.Transfers {
		into[model.Transfer{To: tr.To, Time: tr.Time}] = true
	}
	n := 0
	for _, r := range seq.Requests {
		if into[model.Transfer{To: r.Server, Time: r.Time}] {
			n++
		}
	}
	return n
}
