package datacache

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"datacache/internal/engine"
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
//	migrate     single copy following the requests
//	replicate   copy everywhere, never drop
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
// "migrate", "replicate", "hybrid").
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

// decider builds the engine decider the spec names — the same
// construction whether it serves live or runs as a shadow.
func (sp PolicySpec) decider() (engine.Decider, error) {
	if sp.Policy != "hybrid" && (sp.Horizon != 0 || sp.Order != 0) {
		return nil, fmt.Errorf("datacache: policy %q does not take horizon/order", sp.name())
	}
	switch sp.Policy {
	case "", "sc":
		return &engine.SC{Window: sp.Window, EpochTransfers: sp.EpochTransfers}, nil
	case "ttl":
		if sp.Window <= 0 {
			return nil, fmt.Errorf("datacache: ttl policy requires window > 0")
		}
		return &engine.SC{Window: sp.Window}, nil
	case "migrate":
		return &engine.Migrate{}, nil
	case "replicate", "keep":
		return &engine.Replicate{}, nil
	case "hybrid":
		return &planner.Hybrid{
			Horizon:        sp.Horizon,
			Order:          sp.Order,
			Window:         sp.Window,
			EpochTransfers: sp.EpochTransfers,
		}, nil
	default:
		return nil, fmt.Errorf("datacache: unknown policy %q", sp.Policy)
	}
}

// ParsePolicySpec parses one policy spec of the form
// "kind[:key=value[,key=value...]...]": "sc", "sc:window=1.5",
// "sc:epoch=16", "ttl:window=0.5", "migrate", "replicate",
// "hybrid:horizon=8,order=2". Key=value pairs may be separated by ","
// within a ":" segment or by further ":" segments; both spellings
// parse identically.
func ParsePolicySpec(spec string) (PolicySpec, error) {
	sp, err := parsePolicySpec(spec)
	if err != nil {
		return sp, err
	}
	// Validate the policy name and its parameters eagerly so a bad spec
	// fails at parse time, not at session create.
	if _, err := sp.decider(); err != nil {
		return sp, err
	}
	return sp, nil
}

// parsePolicySpec is the grammar without the decider validation —
// NewSession merges option-level Window/EpochTransfers into the parsed
// spec before validating, so a bare "ttl" with Window in the options
// must survive parsing.
func parsePolicySpec(spec string) (PolicySpec, error) {
	parts := strings.Split(spec, ":")
	sp := PolicySpec{Policy: strings.TrimSpace(parts[0])}
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
