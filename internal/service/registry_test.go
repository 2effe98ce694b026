package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"testing"
	"time"

	"datacache/internal/model"
)

func TestRegistryBasics(t *testing.T) {
	r := newRegistry[int]()
	if _, ok := r.get("a"); ok {
		t.Error("empty registry returned an entry")
	}
	r.put("a", 1)
	r.put("b", 2)
	r.put("a", 3) // overwrite
	if v, ok := r.get("a"); !ok || v != 3 {
		t.Errorf("get(a) = %d, %v", v, ok)
	}
	if r.len() != 2 {
		t.Errorf("len = %d, want 2", r.len())
	}
	if !r.delete("a") || r.delete("a") {
		t.Error("delete must report presence exactly once")
	}
	if r.len() != 1 {
		t.Errorf("len after delete = %d, want 1", r.len())
	}

	sum := 0
	r.forEach(func(id string, v int) { sum += v })
	if sum != 2 {
		t.Errorf("forEach sum = %d, want 2", sum)
	}

	total := 0
	for _, n := range r.shardLens() {
		total += n
	}
	if total != r.len() {
		t.Errorf("shardLens total %d != len %d", total, r.len())
	}
}

// TestFNV1aMatchesStdlib pins the inlined hash to hash/fnv so shard
// placement is the documented FNV-1a, not an accidental variant.
func TestFNV1aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "sn-1", "sn-12345", "st-7", "a-rather-longer-session-identifier"} {
		h := fnv.New32a()
		h.Write([]byte(s))
		if got, want := fnv1a(s), h.Sum32(); got != want {
			t.Errorf("fnv1a(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestRegistryShardSpread: sequential ids must not pile onto one shard.
func TestRegistryShardSpread(t *testing.T) {
	r := newRegistry[int]()
	const n = 1024
	for i := 0; i < n; i++ {
		r.put(fmt.Sprintf("sn-%d", i), i)
	}
	lens := r.shardLens()
	for shard, ln := range lens {
		if ln == 0 {
			t.Errorf("shard %d empty after %d sequential ids", shard, n)
		}
		if ln > n/numShards*3 {
			t.Errorf("shard %d holds %d of %d ids — hash is clumping", shard, ln, n)
		}
	}
}

// TestRegistryHammer is the -race check for the sharded registry itself:
// writers, readers, deleters and iterators on overlapping key ranges.
func TestRegistryHammer(t *testing.T) {
	r := newRegistry[*servingEntry[*liveSession]]()
	const workers = 8
	const keysPerWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerWorker; i++ {
				id := fmt.Sprintf("sn-%d", (w*keysPerWorker+i)%300) // overlapping ranges
				switch i % 4 {
				case 0:
					r.put(id, newServingEntry("session", id, &liveSession{}))
				case 1:
					r.get(id)
				case 2:
					r.delete(id)
				default:
					r.forEach(func(string, *servingEntry[*liveSession]) {})
					r.shardLens()
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEntryLockContextCancel(t *testing.T) {
	l := newEntryLock()
	if err := l.lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A second locker with a canceled context gives up immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.lock(ctx); err == nil {
		t.Fatal("lock succeeded on a canceled context while held")
	}
	// A waiter is released when its context dies mid-wait.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	start := time.Now()
	if err := l.lock(ctx2); err == nil {
		t.Fatal("lock succeeded while held")
	}
	if time.Since(start) > time.Second {
		t.Fatal("canceled waiter did not return promptly")
	}
	l.unlock()
	// Now it is free again.
	if err := l.lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.unlock()
}

// TestServiceShardedHammer hammers the full HTTP surface over the sharded
// registry: concurrent session creates, single serves, batches, closes,
// alerts sweeps and metrics scrapes. Run under -race this is the
// concurrency proof for the lock-striping change.
func TestServiceShardedHammer(t *testing.T) {
	ts := newTestServer(t)
	const writers = 6
	const sweepers = 3
	var wg sync.WaitGroup
	errs := make(chan error, writers+sweepers)

	for k := 0; k < writers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				var st SessionState
				buf, _ := json.Marshal(SessionCreateRequest{
					M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
				})
				resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if st.ID == "" {
					errs <- fmt.Errorf("writer %d: create failed", k)
					return
				}
				// Alternate batches and single requests.
				items := make([]BatchRequestItem, 0, 16)
				for i := 0; i < 16; i++ {
					items = append(items, BatchRequestItem{
						Server: model.ServerID(1 + (i+k)%4),
						T:      float64(i+1) * 0.25,
					})
				}
				bb, _ := json.Marshal(SessionBatchRequest{Requests: items})
				resp2, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(bb))
				if err != nil {
					errs <- err
					return
				}
				if resp2.StatusCode >= 500 {
					errs <- fmt.Errorf("writer %d batch: status %d", k, resp2.StatusCode)
					resp2.Body.Close()
					return
				}
				resp2.Body.Close()
				sb, _ := json.Marshal(StreamAppendRequest{Server: 1, Time: 100})
				resp3, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/request", "application/json", bytes.NewReader(sb))
				if err != nil {
					errs <- err
					return
				}
				if resp3.StatusCode >= 500 {
					errs <- fmt.Errorf("writer %d serve: status %d", k, resp3.StatusCode)
					resp3.Body.Close()
					return
				}
				resp3.Body.Close()
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+st.ID, nil)
				resp4, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				if resp4.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d close: status %d", k, resp4.StatusCode)
				}
				resp4.Body.Close()
			}
		}(k)
	}

	for k := 0; k < sweepers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				for _, route := range []string{"/v1/alerts", "/metrics", "/readyz"} {
					resp, err := http.Get(ts.URL + route)
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode >= 500 {
						errs <- fmt.Errorf("%s: status %d", route, resp.StatusCode)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
				}
			}
		}(k)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
