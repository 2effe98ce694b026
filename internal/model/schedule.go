package model

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CacheInterval records that a copy of the data item is held in cache on
// Server for the closed time interval [From, To] — the paper's H(s, x, y).
// Its caching cost is Mu * (To - From).
type CacheInterval struct {
	Server ServerID
	From   float64
	To     float64
}

// Length returns To - From.
func (h CacheInterval) Length() float64 { return h.To - h.From }

// Contains reports whether time t lies in [From, To].
func (h CacheInterval) Contains(t float64) bool { return h.From <= t && t <= h.To }

// Transfer records a data item transfer Tr(From, To, Time): the item is
// copied from server From to server To at the (instantaneous) time Time, at
// cost Lambda. Replication is a transfer whose source copy survives;
// migration is one whose source copy is deleted right after — the schedule
// encodes the difference through cache intervals, not through the transfer.
type Transfer struct {
	From ServerID
	To   ServerID
	Time float64
}

// Schedule is a set of cache intervals and transfers (Definition 1). A
// feasible schedule keeps at least one copy alive over the whole horizon and
// has the item present at s_i when r_i fires; Validate checks both.
type Schedule struct {
	Caches    []CacheInterval
	Transfers []Transfer
}

// AddCache appends a cache interval H(server, from, to).
func (s *Schedule) AddCache(server ServerID, from, to float64) {
	s.Caches = append(s.Caches, CacheInterval{Server: server, From: from, To: to})
}

// AddTransfer appends a transfer Tr(from, to, at).
func (s *Schedule) AddTransfer(from, to ServerID, at float64) {
	s.Transfers = append(s.Transfers, Transfer{From: from, To: to, Time: at})
}

// Cost prices the schedule under cm: Mu times the total cached time plus
// Lambda per transfer. The cached time is summed by one fixed rule:
// interval lengths are added into a per-server subtotal in slice order,
// and each server's subtotal joins the total when the server changes. On
// a normalized schedule (sorted by server, then time) that is exactly
// "per server in time order, servers in ascending order" — the rule
// engine.Stream.Cost follows from its per-server accumulators, so the
// two agree bit for bit. Call Normalize first if intervals may overlap
// on a server, otherwise overlapping stretches are charged more than
// once.
func (s *Schedule) Cost(cm CostModel) float64 {
	return s.CachingCost(cm) + s.TransferCost(cm)
}

// CachingCost returns only the Mu * time part of the cost, summed by the
// rule Cost documents.
func (s *Schedule) CachingCost(cm CostModel) float64 {
	var total, sub float64
	var cur ServerID
	for _, h := range s.Caches {
		if h.Server != cur {
			total += sub
			sub, cur = 0, h.Server
		}
		sub += h.Length()
	}
	return cm.Mu * (total + sub)
}

// TransferCost returns only the Lambda * count part of the cost.
func (s *Schedule) TransferCost(cm CostModel) float64 {
	return cm.Lambda * float64(len(s.Transfers))
}

// Normalize sorts intervals and transfers by time and merges overlapping or
// touching cache intervals on the same server, so that the schedule prices
// each cached second exactly once. Zero-length intervals are dropped.
func (s *Schedule) Normalize() {
	sort.Slice(s.Caches, func(a, b int) bool {
		if s.Caches[a].Server != s.Caches[b].Server {
			return s.Caches[a].Server < s.Caches[b].Server
		}
		return s.Caches[a].From < s.Caches[b].From
	})
	merged := s.Caches[:0]
	for _, h := range s.Caches {
		if h.To < h.From {
			h.From, h.To = h.To, h.From
		}
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.Server == h.Server && h.From <= last.To+timeEps {
				if h.To > last.To {
					last.To = h.To
				}
				continue
			}
		}
		merged = append(merged, h)
	}
	keep := merged[:0]
	for _, h := range merged {
		if h.Length() > 0 {
			keep = append(keep, h)
		}
	}
	s.Caches = keep
	sort.Slice(s.Transfers, func(a, b int) bool { return s.Transfers[a].Time < s.Transfers[b].Time })
}

// timeEps absorbs floating-point jitter when comparing schedule times.
const timeEps = 1e-9

// HeldAt reports whether some cache interval on server holds the item at
// time t.
func (s *Schedule) HeldAt(server ServerID, t float64) bool {
	for _, h := range s.Caches {
		if h.Server == server && h.From-timeEps <= t && t <= h.To+timeEps {
			return true
		}
	}
	return false
}

// Validate checks feasibility of the schedule for the given instance:
//
//  1. Every request r_i is served — either a cache interval on s_i contains
//     t_i, or a transfer ends at (s_i, t_i) whose source holds a live copy at
//     t_i (Observation 2).
//  2. Copy provenance — after normalization, every maximal cache interval
//     either starts at time 0 on the origin, starts at a transfer into its
//     server, or starts at a request served at that server at that instant
//     (a delivered copy that is then held).
//  3. Coverage — the union of cache intervals covers [0, t_n] with no gaps,
//     so at least one copy is alive at all times (problem condition 1).
//  4. Transfer provenance — every transfer's source holds a live copy at the
//     transfer time.
//
// Validate does not require minimality or optimality. Every lookup is a
// binary search, O((n+H+T) log(H+T)) for n requests, H intervals and T
// transfers, answering exactly as HeldAt's scan would.
func (s *Schedule) Validate(seq *Sequence) error {
	if err := seq.Validate(); err != nil {
		return err
	}
	norm := &Schedule{
		Caches:    append([]CacheInterval(nil), s.Caches...),
		Transfers: append([]Transfer(nil), s.Transfers...),
	}
	norm.Normalize()
	held := newHoldIndex(norm.Caches)
	into := newTransferIndex(norm.Transfers)

	// 4 (checked first so rule 1 may rely on it): transfer sources live.
	for _, tr := range norm.Transfers {
		if tr.From == tr.To {
			return fmt.Errorf("model: transfer at t=%v from server %d to itself", tr.Time, tr.From)
		}
		if !held.at(tr.From, tr.Time) {
			return fmt.Errorf("model: transfer at t=%v sourced from server %d which holds no copy then", tr.Time, tr.From)
		}
	}

	// 1: every request served.
	for i, r := range seq.Requests {
		if !held.at(r.Server, r.Time) && !into.at(r.Server, r.Time) {
			return fmt.Errorf("model: request %d at (s%d, t=%v) is not served by cache or transfer", i+1, r.Server, r.Time)
		}
	}

	// 2: provenance of each maximal interval.
	for _, h := range norm.Caches {
		if h.From <= timeEps {
			if h.Server != seq.Origin {
				return fmt.Errorf("model: cache on server %d starts at t=0 but the origin is %d", h.Server, seq.Origin)
			}
			continue
		}
		if !into.at(h.Server, h.From) {
			// A held copy may also originate at a request served at this
			// exact point by an incoming transfer already checked above, or
			// by an interval that was merged; after Normalize those cases
			// collapse, so reaching here without a transfer is an orphan.
			return fmt.Errorf("model: cache on server %d starting at t=%v has no originating transfer", h.Server, h.From)
		}
	}

	// 3: coverage of [0, t_n].
	if err := coverage(norm.Caches, seq.End()); err != nil {
		return err
	}
	return nil
}

// holdIndex answers HeldAt in O(log H): the intervals sorted by (server,
// from), each To raised to its server's running maximum. The intervals
// with From-timeEps <= t are a prefix of the server's run, and one of
// them reaches t exactly when the prefix's last raised To does.
// Intervals with a NaN bound never hold, so they are left out.
type holdIndex []CacheInterval

func newHoldIndex(caches []CacheInterval) holdIndex {
	x := make(holdIndex, 0, len(caches))
	for _, h := range caches {
		if !math.IsNaN(h.From) && !math.IsNaN(h.To) {
			x = append(x, h)
		}
	}
	sort.Slice(x, func(a, b int) bool {
		return x[a].Server < x[b].Server || x[a].Server == x[b].Server && x[a].From < x[b].From
	})
	for i := 1; i < len(x); i++ {
		if x[i-1].Server == x[i].Server && x[i-1].To > x[i].To {
			x[i].To = x[i-1].To
		}
	}
	return x
}

// at reports what HeldAt(server, t) reports on the indexed intervals.
func (x holdIndex) at(server ServerID, t float64) bool {
	k := sort.Search(len(x), func(i int) bool {
		return x[i].Server > server || x[i].Server == server && x[i].From-timeEps > t
	})
	return k > 0 && x[k-1].Server == server && t <= x[k-1].To+timeEps
}

// transferIndex finds a transfer into a server within timeEps of an
// instant in O(log T): the transfers sorted by (target, time), leaving
// out those at a NaN time, which never match.
type transferIndex []Transfer

func newTransferIndex(trs []Transfer) transferIndex {
	x := make(transferIndex, 0, len(trs))
	for _, tr := range trs {
		if !math.IsNaN(tr.Time) {
			x = append(x, tr)
		}
	}
	sort.Slice(x, func(a, b int) bool {
		return x[a].To < x[b].To || x[a].To == x[b].To && x[a].Time < x[b].Time
	})
	return x
}

// at reports whether some transfer into server has |Time - t| <= timeEps.
func (x transferIndex) at(server ServerID, t float64) bool {
	k := sort.Search(len(x), func(i int) bool {
		return x[i].To > server || x[i].To == server && x[i].Time-t >= -timeEps
	})
	return k < len(x) && x[k].To == server && math.Abs(x[k].Time-t) <= timeEps
}

// coverage checks that the union of intervals covers [0, end].
func coverage(caches []CacheInterval, end float64) error {
	if end <= 0 {
		return nil
	}
	ivs := make([]CacheInterval, len(caches))
	copy(ivs, caches)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].From < ivs[b].From })
	reach := 0.0
	for _, h := range ivs {
		if h.From > reach+timeEps {
			return fmt.Errorf("model: no copy alive on (%v, %v)", reach, h.From)
		}
		if h.To > reach {
			reach = h.To
		}
		if reach >= end-timeEps {
			return nil
		}
	}
	return fmt.Errorf("model: no copy alive on (%v, %v)", reach, end)
}

// String renders the schedule compactly for logs and golden tests.
func (s *Schedule) String() string {
	var b strings.Builder
	b.WriteString("schedule{")
	for i, h := range s.Caches {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "H(s%d,%.4g,%.4g)", h.Server, h.From, h.To)
	}
	for _, tr := range s.Transfers {
		fmt.Fprintf(&b, " Tr(s%d->s%d,%.4g)", tr.From, tr.To, tr.Time)
	}
	b.WriteString("}")
	return b.String()
}

// CountReplicas returns the maximum number of copies simultaneously alive
// at any point of the horizon. A migration hand-off — one interval ending
// exactly where the next begins — counts as a single copy.
func (s *Schedule) CountReplicas(seq *Sequence) int {
	type event struct {
		at    float64
		delta int
	}
	evs := make([]event, 0, 2*len(s.Caches))
	for _, h := range s.Caches {
		evs = append(evs, event{h.From, +1}, event{h.To, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].delta < evs[b].delta // close before open at hand-offs
	})
	alive, max := 0, 0
	for _, e := range evs {
		alive += e.delta
		if alive > max {
			max = alive
		}
	}
	return max
}
