package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// validateScan is the direct quadratic reading of Validate's rules:
// every hold query scans all intervals (HeldAt) and every transfer query
// scans all transfers. It is the oracle FuzzScheduleValidate holds the
// indexed Validate to.
func validateScan(s *Schedule, seq *Sequence) error {
	if err := seq.Validate(); err != nil {
		return err
	}
	norm := &Schedule{
		Caches:    append([]CacheInterval(nil), s.Caches...),
		Transfers: append([]Transfer(nil), s.Transfers...),
	}
	norm.Normalize()
	for _, tr := range norm.Transfers {
		if tr.From == tr.To {
			return fmt.Errorf("model: transfer at t=%v from server %d to itself", tr.Time, tr.From)
		}
		if !norm.HeldAt(tr.From, tr.Time) {
			return fmt.Errorf("model: transfer at t=%v sourced from server %d which holds no copy then", tr.Time, tr.From)
		}
	}
	for i, r := range seq.Requests {
		if norm.HeldAt(r.Server, r.Time) {
			continue
		}
		served := false
		for _, tr := range norm.Transfers {
			if tr.To == r.Server && math.Abs(tr.Time-r.Time) <= timeEps {
				served = true
				break
			}
		}
		if !served {
			return fmt.Errorf("model: request %d at (s%d, t=%v) is not served by cache or transfer", i+1, r.Server, r.Time)
		}
	}
	for _, h := range norm.Caches {
		if h.From <= timeEps {
			if h.Server != seq.Origin {
				return fmt.Errorf("model: cache on server %d starts at t=0 but the origin is %d", h.Server, seq.Origin)
			}
			continue
		}
		ok := false
		for _, tr := range norm.Transfers {
			if tr.To == h.Server && math.Abs(tr.Time-h.From) <= timeEps {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("model: cache on server %d starting at t=%v has no originating transfer", h.Server, h.From)
		}
	}
	return coverage(norm.Caches, seq.End())
}

// Gaps and shifts straddle timeEps so that merges and matches land on
// both sides of the tolerance.
var (
	fuzzGaps   = []float64{1e-10, 5e-10, 1e-9, 1.5e-9, 0.01, 0.3, 1, 2.5}
	fuzzShifts = []float64{1e-10, -1e-10, 9e-10, -9e-10, 1.1e-9, -1.1e-9, 2e-9, 0.05, -0.05, 1, -1}
	fuzzOdd    = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e-10}
)

// fuzzInstance builds a random sequence and a feasible schedule for it:
// the origin holds the item over the whole horizon, and every other
// server keeps a copy for a window past each touch, pulling it from a
// random live holder on a miss.
func fuzzInstance(rng *rand.Rand, m, n int) (*Sequence, *Schedule) {
	seq := &Sequence{M: m, Origin: ServerID(1 + rng.Intn(m))}
	t := 0.01 // a copy starting within timeEps of 0 counts as the origin's
	for i := 0; i < n; i++ {
		t += fuzzGaps[rng.Intn(len(fuzzGaps))]
		seq.Requests = append(seq.Requests, Request{Server: ServerID(1 + rng.Intn(m)), Time: t})
	}
	var s Schedule
	open := make([]int, m+1) // index+1 of the server's open interval in s.Caches
	held := func(j ServerID, at float64) bool {
		return j == seq.Origin || (open[j] > 0 && s.Caches[open[j]-1].To >= at)
	}
	w := fuzzGaps[rng.Intn(len(fuzzGaps))]
	for _, r := range seq.Requests {
		if held(r.Server, r.Time) {
			if r.Server != seq.Origin {
				s.Caches[open[r.Server]-1].To = r.Time + w
			}
			continue
		}
		var live []ServerID
		for j := ServerID(1); int(j) <= m; j++ {
			if held(j, r.Time) {
				live = append(live, j)
			}
		}
		src := live[rng.Intn(len(live))]
		s.AddTransfer(src, r.Server, r.Time)
		if src != seq.Origin {
			s.Caches[open[src]-1].To = r.Time + w
		}
		s.AddCache(r.Server, r.Time, r.Time+w)
		open[r.Server] = len(s.Caches)
	}
	s.AddCache(seq.Origin, 0, seq.End())
	return seq, &s
}

// mutate applies one schedule mutation chosen by op: drop an interval or
// a transfer, shift a time across the tolerance, open a coverage gap,
// rewire a transfer, or plant a self-transfer, an inverted interval or a
// non-finite time.
func mutate(rng *rand.Rand, seq *Sequence, s *Schedule, op byte) {
	pickShift := func() float64 { return fuzzShifts[rng.Intn(len(fuzzShifts))] }
	server := func() ServerID { return ServerID(1 + rng.Intn(seq.M)) }
	nc, nt := len(s.Caches), len(s.Transfers)
	switch op % 12 {
	case 0: // drop an interval
		if nc > 0 {
			i := rng.Intn(nc)
			s.Caches = append(s.Caches[:i], s.Caches[i+1:]...)
		}
	case 1: // drop a transfer
		if nt > 0 {
			i := rng.Intn(nt)
			s.Transfers = append(s.Transfers[:i], s.Transfers[i+1:]...)
		}
	case 2: // shift a transfer
		if nt > 0 {
			s.Transfers[rng.Intn(nt)].Time += pickShift()
		}
	case 3: // open a coverage gap in the origin's interval
		for i, h := range s.Caches {
			if h.Server == seq.Origin && h.From == 0 && h.To > 0 {
				cut := h.To * rng.Float64()
				s.Caches[i].To = cut
				s.AddCache(h.Server, cut+math.Abs(pickShift()), h.To)
				break
			}
		}
	case 4: // rewire a transfer's source
		if nt > 0 {
			s.Transfers[rng.Intn(nt)].From = server()
		}
	case 5: // rewire a transfer's target
		if nt > 0 {
			s.Transfers[rng.Intn(nt)].To = server()
		}
	case 6: // shift an interval's start
		if nc > 0 {
			s.Caches[rng.Intn(nc)].From += pickShift()
		}
	case 7: // shift an interval's end
		if nc > 0 {
			s.Caches[rng.Intn(nc)].To += pickShift()
		}
	case 8: // self-transfer
		j := server()
		s.AddTransfer(j, j, seq.End()*rng.Float64())
	case 9: // inverted interval
		if nc > 0 {
			i := rng.Intn(nc)
			s.Caches[i].From, s.Caches[i].To = s.Caches[i].To, s.Caches[i].From
		}
	case 10: // non-finite or boundary time
		v := fuzzOdd[rng.Intn(len(fuzzOdd))]
		switch {
		case nt > 0 && rng.Intn(2) == 0:
			s.Transfers[rng.Intn(nt)].Time = v
		case nc > 0 && rng.Intn(2) == 0:
			s.Caches[rng.Intn(nc)].From = v
		case nc > 0:
			s.Caches[rng.Intn(nc)].To = v
		}
	case 11: // copy an interval onto another server
		if nc > 0 {
			h := s.Caches[rng.Intn(nc)]
			s.AddCache(server(), h.From, h.To)
		}
	}
}

// FuzzScheduleValidate holds the indexed Validate to the scanning oracle:
// on random sequences with feasible schedules under random mutations,
// both must return the same verdict with the same error text. An
// unmutated schedule must validate.
func FuzzScheduleValidate(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(12), []byte{})
	f.Add(int64(2), uint8(5), uint8(40), []byte{0})
	f.Add(int64(3), uint8(4), uint8(30), []byte{2, 2, 6})
	f.Add(int64(4), uint8(4), uint8(30), []byte{3})
	f.Add(int64(5), uint8(6), uint8(50), []byte{4, 5, 7})
	f.Add(int64(6), uint8(2), uint8(20), []byte{8, 9, 11})
	f.Add(int64(7), uint8(3), uint8(25), []byte{10, 10, 10})
	f.Add(int64(8), uint8(1), uint8(10), []byte{1, 3})
	f.Add(int64(9), uint8(8), uint8(60), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(10), uint8(3), uint8(0), []byte{11, 3})
	f.Add(int64(59), uint8(161), uint8(122), []byte("0\""))
	f.Fuzz(func(t *testing.T, seed int64, m, n uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		seq, s := fuzzInstance(rng, 1+int(m)%8, int(n)%80)
		if len(ops) == 0 {
			if err := s.Validate(seq); err != nil {
				t.Fatalf("generated schedule rejected: %v\n%s", err, s)
			}
		}
		for _, op := range ops {
			mutate(rng, seq, s, op)
		}
		want := validateScan(s, seq)
		got := s.Validate(seq)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate = %v, oracle = %v\n%s", got, want, s)
		}
	})
}
