package offline

import (
	"fmt"
	"math"

	"datacache/internal/model"
)

// Incremental is the streaming form of the O(mn) dynamic program: requests
// are appended one at a time and each append extends the optimum C(n) in
// O(t) time, where t ≤ m is the number of servers touched so far.
//
// Theorem 2 needs very little of the past to extend the optimum by one
// request on server s: C, B and D at s's previous request p, and D and B
// of the first request on every other server after p (the cover index set
// π). Nothing older matters, so the stream keeps exactly that:
//
//   - per touched server, the time, C and B of its latest request;
//   - a candidate table with one entry per ordered pair (x, y) of touched
//     servers holding D and B of the first request on y at or after x's
//     latest request — set when that y-request arrives, cleared when x is
//     requested again. Entry (x, x) is x's latest request itself, the
//     own-server candidate κ = p(i).
//
// The state is O(t²) and does not depend on n. Each append evaluates
// exactly the candidates FastDP evaluates with the same float
// expressions, so Cost equals FastDP's C(n) bit for bit at every prefix.
// Schedules are not kept: callers that need one run FastDP over the
// requests they appended.
type Incremental struct {
	m  int
	cm model.CostModel
	n  int

	t, c, b float64 // time, C and B of the latest request (all 0 at r_0)

	slot   []int32     // server -> slot index + 1, 0 while untouched
	last   []lastReq   // per slot: the server's latest request
	stride int         // row length of cand; doubles up to m
	cand   []candidate // cand[x*stride+y]: first request on y at or after x's latest
}

// lastReq is the DP state at a server's latest request.
type lastReq struct{ t, c, b float64 }

// candidate is D and B of a π candidate; B is NaN while unset (B is always
// finite), which makes an unset entry's D+base−B NaN and so never a
// minimum.
type candidate struct{ d, b float64 }

// NewIncremental starts a stream over m servers with the initial copy at
// origin (time 0).
func NewIncremental(m int, origin model.ServerID, cm model.CostModel) (*Incremental, error) {
	if err := (&model.Sequence{M: m, Origin: origin}).Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	inc := &Incremental{m: m, cm: cm, slot: make([]int32, m+1)}
	// The boundary request r_0 at the origin: C = B = 0 and time 0. Its
	// (origin, origin) entry stays unset because D(0) is never a pivot
	// (κ ≥ 1).
	inc.touch(origin)
	return inc, nil
}

// N returns the number of appended requests.
func (inc *Incremental) N() int { return inc.n }

// Cost returns the optimal cost C(n) of the stream so far.
func (inc *Incremental) Cost() float64 { return inc.c }

// Append adds the next request and updates the optimum. The request time
// must strictly exceed the previous one. A rejected request changes
// nothing.
func (inc *Incremental) Append(r model.Request) error {
	if r.Server < 1 || int(r.Server) > inc.m {
		return fmt.Errorf("offline: request server %d out of range 1..%d", r.Server, inc.m)
	}
	if r.Time <= inc.t {
		return fmt.Errorf("offline: request time %v not after %v", r.Time, inc.t)
	}
	if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
		return fmt.Errorf("offline: request time %v not finite", r.Time)
	}
	cm := inc.cm

	// D(i) per Recurrence (5) over the Theorem-2 candidates; +Inf for the
	// first request on a server (the dummy predecessor at -infinity).
	x := int(inc.slot[r.Server]) - 1
	bi, d := cm.Lambda, math.Inf(1)
	if x >= 0 {
		p := &inc.last[x]
		sigma := r.Time - p.t
		bi = math.Min(bi, cm.Mu*sigma)
		base := cm.Mu*sigma + inc.b
		d = p.c + base - p.b
		for _, e := range inc.row(x) {
			if v := e.d + base - e.b; v < d {
				d = v
			}
		}
	}
	b := inc.b + bi

	// C(i) per Recurrence (2), cache branch preferred on ties.
	c := inc.c + cm.Mu*(r.Time-inc.t) + cm.Lambda
	if d <= c {
		c = d
	}

	// The request starts its server's row afresh, then fills every unset
	// entry of its column: it is the first request on its server at or
	// after the latest request of each of those slots, its own included.
	if x < 0 {
		x = inc.touch(r.Server)
	}
	row := inc.row(x)
	for y := range row {
		row[y].b = math.NaN()
	}
	for y := range inc.last {
		if e := &inc.cand[y*inc.stride+x]; math.IsNaN(e.b) {
			*e = candidate{d: d, b: b}
		}
	}
	inc.last[x] = lastReq{t: r.Time, c: c, b: b}
	inc.n++
	inc.t, inc.c, inc.b = r.Time, c, b
	return nil
}

// row returns slot x's candidate entries over the touched slots.
func (inc *Incremental) row(x int) []candidate {
	return inc.cand[x*inc.stride : x*inc.stride+len(inc.last)]
}

// touch assigns the next slot to server s, doubling the candidate table's
// stride (up to m) when it is full, and returns the slot.
func (inc *Incremental) touch(s model.ServerID) int {
	x := len(inc.last)
	if x == inc.stride {
		stride := min(max(2*inc.stride, 2), inc.m)
		cand := make([]candidate, stride*stride)
		for i := range cand {
			cand[i].b = math.NaN()
		}
		for y := 0; y < x; y++ {
			copy(cand[y*stride:], inc.row(y))
		}
		last := make([]lastReq, x, stride)
		copy(last, inc.last)
		inc.cand, inc.last, inc.stride = cand, last, stride
	}
	inc.last = append(inc.last, lastReq{})
	inc.slot[s] = int32(x + 1)
	return x
}
