package datacache

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"datacache/internal/engine"
	"datacache/internal/online"
	"datacache/internal/planner"
)

// PolicySpec is the one policy grammar: it names a caching policy and
// its parameters, and is used both for the live policy a Session or
// Pool serves with and for the counterfactual shadows it evaluates.
// The zero Policy means "sc"; Label overrides the metric/report label,
// which otherwise is the canonical Spec() rendering ("sc",
// "ttl:window=0.5", "sc:epoch=16", "hybrid:horizon=8,order=2", ...).
//
// Supported policies:
//
//	sc          speculative caching, the paper's 3-competitive online
//	            policy; window defaults to Δ = λ/μ; epoch=N restarts
//	            every N transfers
//	ttl         sc with a mandatory explicit window
//	adaptive    sc with per-server windows learned from revisit gaps
//	            (online.AdaptiveTTL)
//	migrate     single copy following the requests
//	replicate   copy everywhere, never drop ("keep" is an alias)
//	hybrid      prediction-fed planner: SC fallback plus an offline DP
//	            plan over the predicted next horizon requests
//	            (horizon=K, order=k tune it; see internal/planner)
type PolicySpec struct {
	Policy         string
	Window         float64
	EpochTransfers int
	Horizon        int // hybrid: rolling plan depth (requests)
	Order          int // hybrid: Markov predictor order
	Label          string
}

// Spec renders the canonical spec string — a fixed point of
// ParsePolicySpec: parsing a canonical rendering yields a spec that
// renders identically.
func (sp PolicySpec) Spec() string {
	switch sp.Policy {
	case "", "sc":
		s := "sc"
		if sp.Window > 0 {
			s += fmt.Sprintf(":window=%g", sp.Window)
		}
		if sp.EpochTransfers > 0 {
			s += fmt.Sprintf(":epoch=%d", sp.EpochTransfers)
		}
		return s
	case "ttl":
		return fmt.Sprintf("ttl:window=%g", sp.Window)
	case "hybrid":
		var kv []string
		if sp.Horizon > 0 {
			kv = append(kv, fmt.Sprintf("horizon=%d", sp.Horizon))
		}
		if sp.Order > 0 {
			kv = append(kv, fmt.Sprintf("order=%d", sp.Order))
		}
		if sp.Window > 0 {
			kv = append(kv, fmt.Sprintf("window=%g", sp.Window))
		}
		if sp.EpochTransfers > 0 {
			kv = append(kv, fmt.Sprintf("epoch=%d", sp.EpochTransfers))
		}
		if len(kv) == 0 {
			return "hybrid"
		}
		return "hybrid:" + strings.Join(kv, ",")
	default:
		return sp.Policy
	}
}

// label is the name the spec's standings and metric series use.
func (sp PolicySpec) label() string {
	if sp.Label != "" {
		return sp.Label
	}
	return sp.Spec()
}

// name is the bare policy name the spec resolves to ("sc", "ttl",
// "adaptive", "migrate", "replicate", "hybrid").
func (sp PolicySpec) name() string {
	switch sp.Policy {
	case "":
		return "sc"
	case "keep":
		return "replicate"
	default:
		return sp.Policy
	}
}

// policyKinds is the grammar's kind table, the one place a policy name
// maps to a decider; GET /v1/policies lists it in this order. report is
// the batch report name where it differs from the decider's own.
var policyKinds = []struct {
	name, report string
	build        func(sp PolicySpec) engine.Decider
}{
	{"sc", "", func(sp PolicySpec) engine.Decider {
		return &engine.SC{Window: sp.Window, EpochTransfers: sp.EpochTransfers}
	}},
	{"ttl", "", func(sp PolicySpec) engine.Decider { return &engine.SC{Window: sp.Window} }},
	{"adaptive", "", func(PolicySpec) engine.Decider { return &online.AdaptiveTTL{} }},
	{"migrate", "AlwaysMigrate", func(PolicySpec) engine.Decider { return &engine.Migrate{} }},
	{"replicate", "KeepEverywhere", func(PolicySpec) engine.Decider { return &engine.Replicate{} }},
	{"hybrid", "", func(sp PolicySpec) engine.Decider {
		return &planner.Hybrid{Horizon: sp.Horizon, Order: sp.Order, Window: sp.Window, EpochTransfers: sp.EpochTransfers}
	}},
}

// PolicyKinds lists the policy names of the kind table, in its order.
func PolicyKinds() []string {
	out := make([]string, len(policyKinds))
	for i, k := range policyKinds {
		out[i] = k.name
	}
	return out
}

// kind finds the spec's row in the kind table and checks the parameters
// the spec carries.
func (sp PolicySpec) kind() (int, error) {
	for i, k := range policyKinds {
		switch {
		case k.name != sp.name():
			continue
		case k.name != "hybrid" && (sp.Horizon != 0 || sp.Order != 0):
			return i, fmt.Errorf("datacache: policy %q does not take horizon/order", k.name)
		case k.name == "ttl" && sp.Window <= 0:
			return i, fmt.Errorf("datacache: ttl policy requires window > 0")
		}
		return i, nil
	}
	return 0, fmt.Errorf("datacache: unknown policy %q", sp.Policy)
}

// decider builds the engine decider the spec names — the same
// construction whether it serves live, runs as a shadow or runs in batch.
func (sp PolicySpec) decider() (engine.Decider, error) {
	i, err := sp.kind()
	if err != nil {
		return nil, err
	}
	return policyKinds[i].build(sp), nil
}

// ResolvePolicy is the one way from a policy name to a policy, shared by
// NewSession, the HTTP service and the CLIs: it parses spec ("" means
// "sc"), fills the window and epoch the spec left unset (policies that
// take none ignore them), and validates the result.
func ResolvePolicy(spec string, window float64, epoch int) (PolicySpec, error) {
	var sp PolicySpec
	if spec != "" {
		var err error
		if sp, err = parsePolicySpec(spec); err != nil {
			return sp, err
		}
	}
	if sp.Window == 0 {
		sp.Window = window
	}
	if sp.EpochTransfers == 0 {
		sp.EpochTransfers = epoch
	}
	_, err := sp.kind()
	return sp, err
}

// Runner returns the spec as a batch Policy named like the online
// runners (SC, TTL(0.5), AdaptiveTTL, AlwaysMigrate, ...). Each Run
// replays a fresh decider, so it charges what a Session serving sp does.
func (sp PolicySpec) Runner() Policy { return specRunner{sp} }

type specRunner struct{ sp PolicySpec }

func (r specRunner) Name() string {
	i, err := r.sp.kind()
	if err != nil {
		return r.sp.Spec()
	}
	k := policyKinds[i]
	if k.report != "" {
		return k.report
	}
	return k.build(r.sp).Name()
}

func (r specRunner) Run(seq *Sequence, cm CostModel) (*Schedule, error) {
	d, err := r.sp.decider()
	if err != nil {
		return nil, err
	}
	return online.Replay(d, seq, cm)
}

// ParsePolicySpec parses one policy spec of the form
// "kind[:key=value[,key=value...]...]": "sc", "sc:window=1.5",
// "sc:epoch=16", "ttl:window=0.5", "adaptive", "migrate", "replicate",
// "hybrid:horizon=8,order=2". The policy name is case-insensitive.
// Key=value pairs may be separated by "," within a ":" segment or by
// further ":" segments; both spellings parse identically.
func ParsePolicySpec(spec string) (PolicySpec, error) {
	sp, err := parsePolicySpec(spec)
	if err != nil {
		return sp, err
	}
	// Validate the policy name and its parameters eagerly so a bad spec
	// fails at parse time, not at session create.
	_, err = sp.kind()
	return sp, err
}

// parsePolicySpec is the grammar without the kind validation —
// ResolvePolicy merges a separate window and epoch into the parsed spec
// before validating, so a bare "ttl" with a window beside it must
// survive parsing.
func parsePolicySpec(spec string) (PolicySpec, error) {
	parts := strings.Split(spec, ":")
	sp := PolicySpec{Policy: strings.ToLower(strings.TrimSpace(parts[0]))}
	if sp.Policy == "" {
		return sp, fmt.Errorf("datacache: empty policy spec %q", spec)
	}
	for _, seg := range parts[1:] {
		for _, kv := range strings.Split(seg, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return sp, fmt.Errorf("datacache: policy spec %q: %q is not key=value", spec, kv)
			}
			switch key {
			case "window":
				w, err := strconv.ParseFloat(val, 64)
				// The explicit NaN test matters: NaN fails w <= 0 too.
				if err != nil || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return sp, fmt.Errorf("datacache: policy spec %q: bad window %q", spec, val)
				}
				sp.Window = w
			case "epoch":
				e, err := strconv.Atoi(val)
				if err != nil || e < 1 {
					return sp, fmt.Errorf("datacache: policy spec %q: bad epoch %q", spec, val)
				}
				sp.EpochTransfers = e
			case "horizon":
				h, err := strconv.Atoi(val)
				if err != nil || h < 1 {
					return sp, fmt.Errorf("datacache: policy spec %q: bad horizon %q", spec, val)
				}
				sp.Horizon = h
			case "order":
				o, err := strconv.Atoi(val)
				if err != nil || o < 1 {
					return sp, fmt.Errorf("datacache: policy spec %q: bad order %q", spec, val)
				}
				sp.Order = o
			default:
				return sp, fmt.Errorf("datacache: policy spec %q: unknown key %q", spec, key)
			}
		}
	}
	return sp, nil
}

// WithShadowPolicies parses policy specs into the ShadowPolicies option
// — the one-liner for wiring counterfactual policies into a Session or
// a Pool's session template:
//
//	opts.ShadowPolicies, err = datacache.WithShadowPolicies("ttl:window=1", "migrate")
func WithShadowPolicies(specs ...string) ([]PolicySpec, error) {
	out := make([]PolicySpec, 0, len(specs))
	for _, spec := range specs {
		sp, err := ParsePolicySpec(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}
