package main

import (
	"runtime"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// driveResult is one connection's share of a load phase.
type driveResult struct {
	lat    []float64 // per successful call, ms from its due time to its reply
	late   []float64 // per call, ms the generator itself started it late
	failed int       // calls that errored (shed, rejected or transport error)
	misses int       // failed calls plus calls slower than the limit
}

// drive issues n calls on one connection. With interval > 0 it is an open
// loop: call i is due at start + i·interval whether or not earlier calls
// have returned, so a stall delays every later call and that wait counts
// in their latency. With interval 0 it is a closed loop: each call is due
// when it is sent, right after the previous reply. Either way the
// generator's own lateness is the time between the moment a call could
// have been sent (its due time, or the previous reply if that came later)
// and the moment it was sent.
func drive(start time.Time, interval time.Duration, n int, limitMS float64, call func(i int) error) driveResult {
	res := driveResult{lat: make([]float64, 0, n), late: make([]float64, 0, n)}
	prevEnd := start
	for i := 0; i < n; i++ {
		var due time.Time
		if interval > 0 {
			due = start.Add(time.Duration(i) * interval)
			sleepUntil(due)
		}
		sent := time.Now()
		if interval == 0 {
			due = sent
		}
		ready := due
		if prevEnd.After(ready) {
			ready = prevEnd
		}
		res.late = append(res.late, ms(sent.Sub(ready)))
		err := call(i)
		end := time.Now()
		prevEnd = end
		if err != nil {
			res.failed++
			res.misses++
			continue
		}
		l := ms(end.Sub(due))
		res.lat = append(res.lat, l)
		if l > limitMS {
			res.misses++
		}
	}
	return res
}

// merge folds the per-connection results of one phase together.
func merge(rs []driveResult) driveResult {
	var out driveResult
	for _, r := range rs {
		out.lat = append(out.lat, r.lat...)
		out.late = append(out.late, r.late...)
		out.failed += r.failed
		out.misses += r.misses
	}
	return out
}

// backlogGrowing reports whether latency rose across the phase: the
// median of the last quarter of calls exceeds the first quarter's by more
// than half the latency limit. Calls are in schedule order per connection,
// which is what a growing queue shows up in.
func backlogGrowing(lat []float64, limitMS float64) bool {
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	return median(lat[len(lat)-q:])-median(lat[:q]) > limitMS/2
}

// heapAfterGC is the live heap after a forced collection: the smallest
// HeapAlloc of three GC+read rounds, so an allocation racing one round
// (the history sampler's tick, an idle connection's buffers) does not
// count.
func heapAfterGC() float64 {
	best := uint64(0)
	for i := 0; i < 3; i++ {
		runtime.GC()
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		if i == 0 || st.HeapAlloc < best {
			best = st.HeapAlloc
		}
	}
	return float64(best)
}
