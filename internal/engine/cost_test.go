package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/planner"
)

// costDeciders builds one fresh decider per policy shape the serving
// layer accepts: sc, sc:epoch=3, ttl:window=0.7, migrate, replicate and
// hybrid.
var costDeciders = []struct {
	name string
	new  func() engine.Decider
}{
	{"sc", func() engine.Decider { return &engine.SC{} }},
	{"sc:epoch=3", func() engine.Decider { return &engine.SC{EpochTransfers: 3} }},
	{"ttl:window=0.7", func() engine.Decider { return &engine.SC{Window: 0.7} }},
	{"migrate", func() engine.Decider { return &engine.Migrate{} }},
	{"replicate", func() engine.Decider { return &engine.Replicate{} }},
	{"hybrid", func() engine.Decider { return &planner.Hybrid{} }},
}

// nextRequest draws a non-dyadic arrival: mostly a fixed server cycle
// (so the hybrid planner engages), sometimes a random server.
func nextRequest(rng *rand.Rand, i, m int, now float64) (model.ServerID, float64) {
	cycle := [...]int{1, 3, 5, 2}
	srv := cycle[i%len(cycle)]
	if rng.Float64() < 0.3 {
		srv = 1 + rng.Intn(m)
	}
	return model.ServerID(srv), now + 0.01 + rng.Float64()*1.7
}

// TestStreamCostMatchesSnapshot pins the one pricing rule: the O(M)
// accumulator readout equals the normalized schedule's price bit for bit
// at every prefix, and after Finish it equals the returned schedule's.
func TestStreamCostMatchesSnapshot(t *testing.T) {
	cm := model.CostModel{Mu: 1.3, Lambda: 2.7}
	const m = 6
	for _, dc := range costDeciders {
		for seed := int64(1); seed <= 3; seed++ {
			st, err := engine.NewStream(dc.new(), engine.State{M: m, Origin: 2, Model: cm})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			now := 0.0
			for i := 0; i < 300; i++ {
				var srv model.ServerID
				srv, now = nextRequest(rng, i, m, now)
				if _, err := st.Serve(srv, now); err != nil {
					t.Fatalf("%s/seed=%d: %v", dc.name, seed, err)
				}
				if got, want := st.Cost(cm), st.Snapshot().Cost(cm); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/seed=%d request %d: Stream.Cost %v != Snapshot().Cost %v", dc.name, seed, i+1, got, want)
				}
			}
			open := st.Cost(cm)
			// Odd seeds close at the last request (the open readout must
			// survive Finish unchanged), even seeds past it.
			end := now
			if seed%2 == 0 {
				end += 0.9
			}
			sched, err := st.Finish(end)
			if err != nil {
				t.Fatal(err)
			}
			got := st.Cost(cm)
			if want := sched.Cost(cm); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s/seed=%d: finished Stream.Cost %v != schedule Cost %v", dc.name, seed, got, want)
			}
			if end == now && math.Float64bits(got) != math.Float64bits(open) {
				t.Errorf("%s/seed=%d: Finish at the last request moved the cost %v -> %v", dc.name, seed, open, got)
			}
		}
	}
}

// TestStreamCostAllocFree keeps pricing off the allocator however long
// the stream has run.
func TestStreamCostAllocFree(t *testing.T) {
	cm := model.CostModel{Mu: 1.3, Lambda: 2.7}
	const m = 8
	st, err := engine.NewStream(&engine.SC{}, engine.State{M: m, Origin: 1, Model: cm})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	now := 0.0
	for i := 0; i < 20000; i++ {
		var srv model.ServerID
		srv, now = nextRequest(rng, i, m, now)
		if _, err := st.Serve(srv, now); err != nil {
			t.Fatal(err)
		}
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += st.Cost(cm) }); allocs != 0 {
		t.Fatalf("Stream.Cost allocates %v times per call after 20000 requests", allocs)
	}
	if sink <= 0 {
		t.Fatalf("implausible cost sum %v", sink)
	}
}
