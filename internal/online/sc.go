package online

import (
	"datacache/internal/engine"
	"datacache/internal/model"
)

// SpeculativeCaching is the paper's SC algorithm (Section V): a copy
// migrated to or touched on a server speculatively stays alive for another
// Δt = λ/μ after its last use; a request arriving within the window is a
// cache hit and refreshes it, otherwise the request is served by a transfer
// from the most recently refreshed live copy. Both endpoints of a transfer
// are refreshed. Expired copies are deleted — except the last copy, which is
// extended indefinitely so that at least one copy is always alive; when the
// last two copies expire together (the source and target of one transfer),
// the source is deleted and the target kept, as in step 4 of the algorithm.
//
// This type is a thin adapter: the decision rules live in engine.SC (the
// single production implementation, also driven by internal/cloudsim and
// datacache.Session), and Run replays the sequence through it. ReferenceSC
// keeps the frozen pre-engine implementation for differential testing.
type SpeculativeCaching struct {
	// EpochTransfers is the epoch size: after this many transfers the
	// algorithm restarts with a single copy at the just-served server
	// (step 3, third bullet). Zero or negative runs one unbounded epoch.
	// The paper's analysis uses epochs of n transfers; the competitive
	// bound holds for any setting because it is proven per epoch.
	EpochTransfers int

	// Window, when positive, overrides the speculative window Δt = λ/μ.
	// This is the TTL(τ) generalization used by the ablation experiment;
	// the paper's SC corresponds to Window == 0 (derive from the model).
	Window float64

	// MaxCopies, when positive, caps the number of simultaneously live
	// copies (the classic fixed-capacity constraint of Table I): when a
	// transfer would exceed the cap, the copies with the earliest
	// speculative deadlines are evicted immediately. Zero means the
	// paper's unbounded-capacity setting.
	MaxCopies int
}

func (p SpeculativeCaching) decider() *engine.SC {
	return &engine.SC{Window: p.Window, EpochTransfers: p.EpochTransfers, MaxCopies: p.MaxCopies}
}

// Name implements Runner: SC, TTL(τ), SC(epoch=N) or SC(cap=K), as the
// engine decider names itself.
func (p SpeculativeCaching) Name() string { return p.decider().Name() }

// Run implements Runner by replaying the sequence through the shared
// decision engine.
func (p SpeculativeCaching) Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	return Replay(p.decider(), seq, cm)
}
