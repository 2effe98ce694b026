package main

import (
	"fmt"
	"math"
	"sync"

	"datacache"
	"datacache/internal/model"
)

// maxFailures bounds how many check failures a run keeps for its report.
const maxFailures = 20

// checker collects output-check failures. A failed check makes the run
// incorrect; it is never folded into a slow result.
type checker struct {
	mu    sync.Mutex
	fails []string
	total int
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if len(c.fails) < maxFailures {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total == 0
}

// relClose compares two costs at 1e-9 relative tolerance.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// optimum is the off-line optimum (FastDP) of reqs served from the origin
// copy at time 0.
func optimum(reqs []model.Request) (float64, error) {
	return datacache.OptimalCost(&model.Sequence{M: numServers, Origin: origin, Requests: reqs}, costModel)
}

// finalState checks one session's or pool's final readout against the
// requests actually sent: one decision per request, the optimum equal to
// FastDP's within 1e-9 relative, and the cost within Theorem 3's 3·OPT.
func (c *checker) finalState(what string, n, sent int, cost, opt, wantOpt float64) {
	if n != sent {
		c.failf("%s: served n=%d, sent %d", what, n, sent)
	}
	if !relClose(opt, wantOpt) {
		c.failf("%s: optimum %.17g, FastDP on the sent sequence %.17g", what, opt, wantOpt)
	}
	if !(cost <= 3*opt*(1+1e-12)) {
		c.failf("%s: cost %.17g exceeds 3·OPT (OPT %.17g)", what, cost, opt)
	}
	if !(cost >= opt*(1-1e-9)) {
		c.failf("%s: cost %.17g below the optimum %.17g", what, cost, opt)
	}
}

// monotone tracks one stream of cumulative costs, which must never
// decrease.
type monotone struct {
	what string
	last float64
}

func (m *monotone) see(c *checker, i int, cost float64) {
	if cost < m.last {
		c.failf("%s: cumulative cost fell from %.17g to %.17g at decision %d", m.what, m.last, cost, i)
	}
	m.last = cost
}
