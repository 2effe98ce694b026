package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// numShards is the lock-stripe width of the session and stream registries.
// Session ids hash onto shards with FNV-1a, so operations on different
// sessions contend only when their ids collide modulo numShards; /v1/alerts
// and the per-shard gauges iterate shard by shard, never holding more than
// one shard lock at a time.
const numShards = 16

// registry is a lock-striped map from id to entry. It replaces the former
// server-wide sync.Mutex around the session and stream tables: a shard
// lock is held only for the map operation itself (lookups copy the entry
// pointer out), so unrelated sessions never serialize on registry access.
type registry[V any] struct {
	shards [numShards]regShard[V]
}

type regShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

func newRegistry[V any]() *registry[V] {
	r := &registry[V]{}
	for i := range r.shards {
		r.shards[i].m = make(map[string]V)
	}
	return r
}

// fnv1a is the 32-bit FNV-1a hash (inlined rather than hash/fnv so shard
// selection allocates nothing).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (r *registry[V]) shard(id string) *regShard[V] {
	return &r.shards[fnv1a(id)%numShards]
}

func (r *registry[V]) get(id string) (V, bool) {
	sh := r.shard(id)
	sh.mu.RLock()
	v, ok := sh.m[id]
	sh.mu.RUnlock()
	return v, ok
}

func (r *registry[V]) put(id string, v V) {
	sh := r.shard(id)
	sh.mu.Lock()
	sh.m[id] = v
	sh.mu.Unlock()
}

// delete removes id and reports whether it was present, so racing DELETE
// handlers tear a session down exactly once.
func (r *registry[V]) delete(id string) bool {
	sh := r.shard(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	return ok
}

func (r *registry[V]) len() int {
	n := 0
	for i := range r.shards {
		r.shards[i].mu.RLock()
		n += len(r.shards[i].m)
		r.shards[i].mu.RUnlock()
	}
	return n
}

// shardLens reports the entry count of every shard (the per-shard gauges).
func (r *registry[V]) shardLens() [numShards]int {
	var out [numShards]int
	for i := range r.shards {
		r.shards[i].mu.RLock()
		out[i] = len(r.shards[i].m)
		r.shards[i].mu.RUnlock()
	}
	return out
}

// forEach visits every entry, one shard at a time. Each shard is snapshot
// under its read lock and the visits run lock-free, so a slow visitor
// (collectAlerts taking every entry lock in turn) never blocks writers on
// more than the shard currently being copied.
func (r *registry[V]) forEach(fn func(id string, v V)) {
	type kv struct {
		id string
		v  V
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		snap := make([]kv, 0, len(sh.m))
		for id, v := range sh.m {
			snap = append(snap, kv{id, v})
		}
		sh.mu.RUnlock()
		for _, e := range snap {
			fn(e.id, e.v)
		}
	}
}

// lookup resolves a /v1/{kind}/{id}[/{op}] path against reg, answering
// 404 for an unknown id.
func lookup[V any](s *Server, w http.ResponseWriter, r *http.Request, reg *registry[V], kind string) (v V, id, op string, ok bool) {
	id, op, _ = strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/"+kind+"/"), "/")
	if v, ok = reg.get(id); !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown %s %q", kind, id))
	}
	return v, id, op, ok
}

// entryLock is a context-aware mutex: a channel-based binary semaphore, so
// a handler waiting behind a long batch can abandon the wait when its
// client disconnects (r.Context() is canceled) instead of holding a queue
// slot on the shard's session forever.
type entryLock chan struct{}

func newEntryLock() entryLock { return make(entryLock, 1) }

// lock acquires the entry, or gives up when ctx is canceled first.
func (l entryLock) lock(ctx context.Context) error {
	select {
	case l <- struct{}{}:
		return nil
	default:
	}
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l entryLock) unlock() { <-l }
