package online

import (
	"sort"

	"datacache/internal/engine"
	"datacache/internal/model"
)

// AdaptiveTTL is a learning extension of SC (beyond the paper): instead of
// the fixed worst-case window Δt = λ/μ, it learns each server's empirical
// revisit-gap distribution online and retains each copy for the window that
// minimizes the empirical ski-rental cost
//
//	cost(w) = Σ_gaps ( μ·min(gap, w) + λ·[gap > w] ),
//
// evaluated over the candidate windows {0} ∪ {observed gaps ≤ Δt} ∪ {Δt}.
// Candidates above Δt are pointless: retention beyond λ/μ already costs
// more than the transfer it avoids. With fewer than MinSamples
// observations for a server it falls back to the SC window, so the policy
// degrades gracefully to SC on unpredictable traffic.
//
// AdaptiveTTL keeps SC's structural rules (last copy never dies, transfer
// refreshes both endpoints), so it always produces feasible schedules; it
// does not inherit SC's worst-case proof, which is exactly the trade-off
// experiment E11 quantifies.
//
// *AdaptiveTTL is an engine.Decider: it wraps engine.SC through the
// WindowOf hook, as planner.Hybrid does, and learns the gaps in
// OnRequest. A Session serves it live as the "adaptive" policy spec.
type AdaptiveTTL struct {
	// MaxSamples caps the per-server gap history (default 64).
	MaxSamples int
	// MinSamples gates learning (default 4).
	MinSamples int

	sc       engine.SC
	cm       model.CostModel
	lastSeen []float64   // last arrival per server, -1 before the first
	gaps     [][]float64 // recent revisit gaps per server
	window   []float64   // learned retention window per server
}

// Name implements Runner and engine.Decider.
func (AdaptiveTTL) Name() string { return "AdaptiveTTL" }

// Run implements Runner by replaying the sequence through a fresh
// AdaptiveTTL decider.
func (p AdaptiveTTL) Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	return Replay(&AdaptiveTTL{MaxSamples: p.MaxSamples, MinSamples: p.MinSamples}, seq, cm)
}

// Init implements engine.Decider: every server starts at the SC window,
// and the wrapped SC reads the learned windows through WindowOf.
func (p *AdaptiveTTL) Init(st engine.State) []engine.Action {
	p.cm = st.Model
	p.lastSeen = make([]float64, st.M+1)
	p.gaps = make([][]float64, st.M+1)
	p.window = make([]float64, st.M+1)
	for j := range p.lastSeen {
		p.lastSeen[j] = -1
		p.window[j] = st.Model.Delta()
	}
	p.sc = engine.SC{WindowOf: func(j model.ServerID) float64 { return p.window[j] }}
	return p.sc.Init(st)
}

// OnRequest implements engine.Decider. It records the revisit gap and
// re-optimizes the server's window before SC serves, so the refreshed
// window already reflects it (strictly online: only past arrivals are
// used).
func (p *AdaptiveTTL) OnRequest(server model.ServerID, t float64) ([]engine.Action, error) {
	if last := p.lastSeen[server]; last >= 0 {
		g := p.gaps[server]
		if len(g) >= orDefault(p.MaxSamples, 64) {
			g = g[:copy(g, g[1:])] // sliding window: drop the oldest sample
		}
		g = append(g, t-last)
		p.gaps[server] = g
		if len(g) >= orDefault(p.MinSamples, 4) {
			p.window[server] = bestWindow(g, p.cm)
		}
	}
	p.lastSeen[server] = t
	return p.sc.OnRequest(server, t)
}

// OnTimer implements engine.Decider by delegating to the wrapped SC.
func (p *AdaptiveTTL) OnTimer(t float64) []engine.Action { return p.sc.OnTimer(t) }

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// bestWindow minimizes the empirical ski-rental cost over the candidate
// set. Sorting the gaps lets each candidate be evaluated in O(1) with
// prefix sums: for w = sorted[i], every smaller gap is cached in full,
// every larger gap is cached for w and then pays a transfer.
func bestWindow(gaps []float64, cm model.CostModel) float64 {
	delta := cm.Delta()
	sorted := append([]float64(nil), gaps...)
	sort.Float64s(sorted)
	prefix := make([]float64, len(sorted)+1)
	for i, gp := range sorted {
		prefix[i+1] = prefix[i] + gp
	}
	n := len(sorted)
	total := func(w float64) float64 {
		// Number of gaps <= w.
		k := sort.SearchFloat64s(sorted, w+1e-15)
		return cm.Mu*prefix[k] + float64(n-k)*(cm.Mu*w+cm.Lambda)
	}
	best, bestCost := 0.0, total(0)
	for _, gp := range sorted {
		if gp > delta {
			break
		}
		if c := total(gp); c < bestCost {
			best, bestCost = gp, c
		}
	}
	if c := total(delta); c < bestCost {
		best = delta
	}
	return best
}
