package offline

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
)

func TestIncrementalMatchesBatchAtEveryPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 100; trial++ {
		seq, cm := randomInstance(rng, 5, 25)
		inc, err := NewIncremental(seq.M, seq.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range seq.Requests {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
			prefix := &model.Sequence{M: seq.M, Origin: seq.Origin, Requests: seq.Requests[:i+1]}
			batch, err := FastDP(prefix, cm)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(inc.Cost(), batch.Cost()) {
				t.Fatalf("trial %d prefix %d: incremental %v != batch %v",
					trial, i+1, inc.Cost(), batch.Cost())
			}
		}
		if inc.N() != seq.N() {
			t.Fatalf("N = %d, want %d", inc.N(), seq.N())
		}
	}
}

// TestIncrementalVectorsMatchBatch streams the paper's Fig. 6 instance
// and checks the streamed optimum against FastDP's C vector bit for bit at
// every prefix, ending at the printed C(7) = 8.9.
func TestIncrementalVectorsMatchBatch(t *testing.T) {
	seq, cm := Fig6Instance()
	inc, err := NewIncremental(seq.M, seq.Origin, cm)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range seq.Requests {
		if err := inc.Append(r); err != nil {
			t.Fatal(err)
		}
		if got, want := inc.Cost(), batch.C[i+1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("C(%d): streamed %v != batch %v", i+1, got, want)
		}
	}
	if !approxEq(inc.Cost(), 8.9) {
		t.Errorf("Fig6 streaming cost = %v, want 8.9", inc.Cost())
	}
}

// TestIncrementalBitwiseMatchesFastDP pins the streaming DP to FastDP's
// C(i) under math.Float64bits at every prefix: both evaluate the same
// candidate set with the same float expressions. FastDP's C[i] depends
// only on the first i requests, so one batch run covers every prefix.
func TestIncrementalBitwiseMatchesFastDP(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 400; trial++ {
		seq, cm := randomInstance(rng, 20, 300)
		if trial%2 == 0 {
			cm = model.Unit
		}
		batch, err := FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(seq.M, seq.Origin, cm)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range seq.Requests {
			if err := inc.Append(r); err != nil {
				t.Fatal(err)
			}
			if got, want := inc.Cost(), batch.C[i+1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (m=%d) prefix %d: streamed %v != FastDP %v", trial, seq.M, i+1, got, want)
			}
		}
	}
}

// TestIncrementalAppendAllocFree proves the retained state is flat in n:
// once every server is touched, appending a long Zipf tail allocates
// nothing at all.
func TestIncrementalAppendAllocFree(t *testing.T) {
	const m, tail = 16, 40000
	inc, err := NewIncremental(m, 1, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for s := 1; s <= m; s++ {
		now++
		if err := inc.Append(model.Request{Server: model.ServerID(s), Time: now}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.2, 1, m-1)
	servers := make([]model.ServerID, tail)
	for i := range servers {
		servers[i] = model.ServerID(1 + zipf.Uint64())
	}
	allocs := testing.AllocsPerRun(2, func() {
		for _, s := range servers {
			now += 0.25
			if err := inc.Append(model.Request{Server: s, Time: now}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per %d-request tail, want 0", allocs, tail)
	}
	if want := m + 3*tail; inc.N() != want {
		t.Errorf("N = %d, want %d", inc.N(), want)
	}
}

func TestIncrementalAppendErrors(t *testing.T) {
	if _, err := NewIncremental(0, 1, model.Unit); err == nil {
		t.Error("invalid m accepted")
	}
	if _, err := NewIncremental(2, 1, model.CostModel{}); err == nil {
		t.Error("invalid cost model accepted")
	}
	inc, err := NewIncremental(2, 1, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(model.Request{Server: 9, Time: 1}); err == nil {
		t.Error("out-of-range server accepted")
	}
	if err := inc.Append(model.Request{Server: 1, Time: 0}); err == nil {
		t.Error("time 0 accepted")
	}
	if err := inc.Append(model.Request{Server: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(model.Request{Server: 2, Time: 1}); err == nil {
		t.Error("non-increasing time accepted")
	}
	if err := inc.Append(model.Request{Server: 2, Time: math.Inf(1)}); err == nil {
		t.Error("infinite time accepted")
	}
	if inc.N() != 1 {
		t.Errorf("failed appends must not change the stream: N=%d", inc.N())
	}
}

func TestIncrementalEmptyStream(t *testing.T) {
	inc, err := NewIncremental(2, 2, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Cost() != 0 || inc.N() != 0 {
		t.Errorf("fresh stream: cost %v, n %d", inc.Cost(), inc.N())
	}
}
