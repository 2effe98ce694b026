package engine_test

import (
	"fmt"
	"math"
	"testing"

	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/offline"
)

// decodeInstance mirrors the online/offline fuzz decoders: arbitrary bytes
// become a valid small instance.
func decodeInstance(data []byte) (*model.Sequence, model.CostModel) {
	if len(data) < 4 {
		return nil, model.CostModel{}
	}
	m := 1 + int(data[0]%6)
	cm := model.CostModel{
		Mu:     0.1 + float64(data[1]%40)/10,
		Lambda: 0.1 + float64(data[2]%40)/10,
	}
	seq := &model.Sequence{M: m, Origin: model.ServerID(1 + int(data[3])%m)}
	t := 0.0
	for i := 4; i+1 < len(data) && seq.N() < 24; i += 2 {
		t += 0.01 + float64(data[i+1]%200)/50
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + int(data[i])%m),
			Time:   t,
		})
	}
	return seq, cm
}

// FuzzEngineSC drives the engine deciders directly on arbitrary
// instances: at every prefix the O(M) Stream.Cost must match the
// normalized snapshot's price (within 1e-9 relative — fuzzed times can
// put two intervals on one server closer than Normalize's merge
// tolerance), every schedule must validate, the canonical SC must
// stay within Theorem 3's factor 3 of the FastDP optimum, and the epoch
// variant within 3·OPT plus an additive reset slack (each reset throws away
// live copies, worth at most one re-fetch of 3λ in the per-epoch
// composition).
func FuzzEngineSC(f *testing.F) {
	f.Add([]byte{3, 10, 10, 0, 1, 50, 2, 120, 0, 10, 1, 255, 2, 3})
	f.Add([]byte{2, 5, 20, 1, 1, 1, 0, 201, 1, 1, 0, 200})
	f.Add([]byte{5, 0, 39, 2, 4, 9, 3, 9, 2, 9, 1, 9, 0, 9, 4, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, cm := decodeInstance(data)
		if seq == nil {
			return
		}
		if err := seq.Validate(); err != nil {
			t.Skip()
		}
		opt, err := offline.FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-6 * (1 + opt.Cost())

		check := func(name string, d engine.Decider) *model.Schedule {
			sched, err := streamPriced(d, seq, cm)
			if err != nil {
				t.Fatalf("%s: %v\nseq=%+v cm=%+v", name, err, seq, cm)
			}
			if err := sched.Validate(seq); err != nil {
				t.Fatalf("%s: infeasible schedule: %v\nseq=%+v cm=%+v", name, err, seq, cm)
			}
			if c := sched.Cost(cm); c < opt.Cost()-tol {
				t.Fatalf("%s: cost %v below optimum %v", name, c, opt.Cost())
			}
			return sched
		}

		// Canonical SC: Theorem 3.
		sc := check("SC", &engine.SC{})
		if c := sc.Cost(cm); c > 3*opt.Cost()+tol {
			t.Fatalf("SC cost %v exceeds 3·OPT=%v\nseq=%+v cm=%+v", c, 3*opt.Cost(), seq, cm)
		}

		// Epoch variant: 3·OPT plus additive slack per reset.
		resets := 0
		epoch := check("SC(epoch=2)", &engine.SC{
			EpochTransfers: 2,
			OnReset:        func(float64, model.ServerID) { resets++ },
		})
		slack := 3 * cm.Lambda * float64(resets)
		if c := epoch.Cost(cm); c > 3*opt.Cost()+slack+tol {
			t.Fatalf("SC(epoch=2) cost %v exceeds 3·OPT+slack=%v (resets=%d)\nseq=%+v cm=%+v",
				c, 3*opt.Cost()+slack, resets, seq, cm)
		}

		// Remaining parameterizations: feasibility only.
		check("TTL", &engine.SC{Window: 0.25 * cm.Delta()})
		check("SC(cap=2)", &engine.SC{MaxCopies: 2})
		check("migrate", &engine.Migrate{})
		check("replicate", &engine.Replicate{})
	})
}

// streamPriced is engine.Replay with a pricing cross-check after every
// request: Stream.Cost against Snapshot().Cost, within 1e-9 relative.
func streamPriced(d engine.Decider, seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	st, err := engine.NewStream(d, engine.State{M: seq.M, Origin: seq.Origin, Model: cm})
	if err != nil {
		return nil, err
	}
	for i, r := range seq.Requests {
		if _, err := st.Serve(r.Server, r.Time); err != nil {
			return nil, err
		}
		got, want := st.Cost(cm), st.Snapshot().Cost(cm)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return nil, fmt.Errorf("request %d: Stream.Cost %v != Snapshot().Cost %v", i+1, got, want)
		}
	}
	return st.Finish(seq.End())
}
