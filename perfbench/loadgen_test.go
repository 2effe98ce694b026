package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// slowServer answers every call after delay, sheds every shedEvery-th
// call with 429, and stalls once for stall on call stallAt.
func slowServer(delay time.Duration, shedEvery, stallAt int, stall time.Duration) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1))
		time.Sleep(delay)
		if n == stallAt {
			time.Sleep(stall)
		}
		if shedEvery > 0 && n%shedEvery == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	return srv, &calls
}

func httpCall(c *http.Client, url string) func(int) error {
	return func(int) error {
		resp, err := c.Get(url)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
}

// A stall on one call must delay the calls scheduled behind it, and an
// open loop must charge that wait to the service (latency from the due
// time), not to the generator.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n        = 60
		interval = 5 * time.Millisecond
		stall    = 100 * time.Millisecond
	)
	srv, calls := slowServer(time.Millisecond, 0, 10, stall)
	defer srv.Close()
	c := srv.Client()
	res := drive(time.Now(), interval, n, 50, httpCall(c, srv.URL))
	if int(calls.Load()) != n || len(res.lat) != n || res.failed != 0 {
		t.Fatalf("calls %d, latencies %d, failed %d", calls.Load(), len(res.lat), res.failed)
	}
	// Call 9 (the 10th) stalled; the calls due during the stall waited.
	if res.lat[9] < ms(stall) {
		t.Errorf("stalled call latency %.1f ms < stall", res.lat[9])
	}
	if res.lat[10] < ms(stall-interval)*0.9 {
		t.Errorf("call due right after the stall: latency %.1f ms, want about %.1f (queued behind it)", res.lat[10], ms(stall-interval))
	}
	if res.misses < 5 {
		t.Errorf("misses %d: the calls queued behind a 100 ms stall must miss a 50 ms limit", res.misses)
	}
	for i, l := range res.late {
		if l > 20 {
			t.Errorf("call %d: generator lateness %.1f ms, but the wait was the service's", i, l)
		}
	}
	// A closed loop over the same server never queues: latency is the
	// call's own time.
	cl := drive(time.Now(), 0, 20, 50, httpCall(c, srv.URL))
	for i, l := range cl.lat {
		if l > 50 {
			t.Errorf("closed loop call %d: %.1f ms", i, l)
		}
	}
}

// A service slower than the offered rate builds a backlog; shed calls
// count as failed and as missing the limit.
func TestOpenLoopBacklogAndSheds(t *testing.T) {
	srv, _ := slowServer(4*time.Millisecond, 5, 0, 0)
	defer srv.Close()
	res := drive(time.Now(), 2*time.Millisecond, 80, 1000, httpCall(srv.Client(), srv.URL))
	if res.failed != 16 {
		t.Errorf("failed %d, want 16 (every fifth call shed)", res.failed)
	}
	if res.misses != res.failed {
		t.Errorf("misses %d, want the %d sheds (every success is under the 1 s limit)", res.misses, res.failed)
	}
	if !backlogGrowing(res.lat, 10) {
		t.Errorf("a 4 ms service at one call per 2 ms must show a growing backlog; latencies %v", res.lat)
	}
	fast, _ := slowServer(0, 0, 0, 0)
	defer fast.Close()
	ok := drive(time.Now(), 2*time.Millisecond, 80, 1000, httpCall(fast.Client(), fast.URL))
	if backlogGrowing(ok.lat, 10) {
		t.Errorf("an instant service shows a growing backlog; latencies %v", ok.lat)
	}
}
