package datacache

import (
	"strings"
	"testing"
)

// TestPolicySpecRoundTrip pins the canonicalization property the whole
// policy-spec API rests on: for every supported policy family, Spec() is
// a fixed point of ParsePolicySpec — parse(spec).Spec() re-parses to the
// identical PolicySpec and renders to the identical string. The recorder
// depends on this (StreamInfo.Policy stores Spec() and replay re-parses
// it), so a drift here silently breaks bit-for-bit replay.
func TestPolicySpecRoundTrip(t *testing.T) {
	specs := map[string]string{ // spec -> its canonical rendering
		"sc":                       "sc",
		"sc:window=1.5":            "sc:window=1.5",
		"sc:epoch=16":              "sc:epoch=16",
		"sc:window=2:epoch=8":      "sc:window=2:epoch=8",
		"sc:window=2,epoch=8":      "sc:window=2:epoch=8", // comma and colon spellings parse alike
		"ttl:window=0.5":           "ttl:window=0.5",
		"adaptive":                 "adaptive",
		"SC:window=1":              "sc:window=1", // the policy name is case-insensitive
		"migrate":                  "migrate",
		"replicate":                "replicate",
		"keep":                     "keep",
		"hybrid":                   "hybrid",
		"hybrid:horizon=8":         "hybrid:horizon=8",
		"hybrid:order=2":           "hybrid:order=2",
		"hybrid:horizon=8,order=2": "hybrid:horizon=8,order=2",
		"hybrid:horizon=4,order=3,window=1.5,epoch=32": "hybrid:horizon=4,order=3,window=1.5,epoch=32",
	}
	for spec, want := range specs {
		sp, err := ParsePolicySpec(spec)
		if err != nil {
			t.Fatalf("ParsePolicySpec(%q): %v", spec, err)
		}
		canon := sp.Spec()
		if canon != want {
			t.Errorf("ParsePolicySpec(%q).Spec() = %q, want %q", spec, canon, want)
		}
		sp2, err := ParsePolicySpec(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if sp2 != sp {
			t.Errorf("%q: parse(Spec()) = %+v, want %+v", spec, sp2, sp)
		}
		if again := sp2.Spec(); again != canon {
			t.Errorf("%q: Spec() not a fixed point: %q then %q", spec, canon, again)
		}
	}
}

// TestPolicySpecRejects pins the validation errors: parameters that make
// no sense for a policy are refused eagerly at parse time, not at first
// use inside a session.
func TestPolicySpecRejects(t *testing.T) {
	bad := map[string]string{
		"sc:horizon=4":      "does not take horizon/order",
		"ttl:order=2":       "does not take horizon/order",
		"adaptive:order=2":  "does not take horizon/order",
		"migrate:horizon=1": "does not take horizon/order",
		"hybrid:horizon=0":  "horizon",
		"hybrid:order=0":    "order",
		"ttl":               "window",
		"ttl:window=0":      "bad window",
		"sc:window=-1":      "bad window",
		"sc:epoch=0":        "bad epoch",
		"sc:epoch":          "not key=value",
		"sc:bogus=1":        "unknown key",
		"warp":              "unknown policy",
		"":                  "empty",
	}
	for spec, want := range bad {
		if _, err := ParsePolicySpec(spec); err == nil {
			t.Errorf("ParsePolicySpec(%q) accepted, want error mentioning %q", spec, want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePolicySpec(%q) = %v, want mention of %q", spec, err, want)
		}
	}
	if dup, err := WithShadowPolicies("migrate", "migrate"); err == nil {
		// Parsing succeeds; the duplicate label is rejected at session create.
		if _, err := NewSession(3, 1, Unit, &SessionOptions{ShadowPolicies: dup}); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("duplicate shadow labels at create: err = %v, want duplicate-label error", err)
		}
	}
}

// FuzzParsePolicySpec drives arbitrary spec strings through the parser
// and checks the canonicalization invariant on everything it accepts:
// the rendered Spec() must re-parse without error, render identically
// (fixed point), and construct a valid decider.
func FuzzParsePolicySpec(f *testing.F) {
	for _, seed := range []string{
		"sc", "sc:window=1.5", "sc:epoch=16", "sc:window=2:epoch=8",
		"ttl:window=0.5", "adaptive", "migrate", "replicate", "keep",
		"hybrid", "hybrid:horizon=8,order=2", "hybrid:window=2",
		"sc:bogus=1", "sc:epoch", "", "warp", "hybrid:horizon=0",
		"ttl:window=-1", "ttl:window=NaN", "sc:window=+Inf",
		"sc:window=1e300", "hybrid:order=2:horizon=3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sp, err := ParsePolicySpec(spec)
		if err != nil {
			return // rejected input: nothing to check
		}
		canon := sp.Spec()
		sp2, err := ParsePolicySpec(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if again := sp2.Spec(); again != canon {
			t.Fatalf("Spec() not a fixed point for %q: %q then %q", spec, canon, again)
		}
		if _, err := sp2.decider(); err != nil {
			t.Fatalf("canonical %q builds no decider: %v", canon, err)
		}
	})
}
