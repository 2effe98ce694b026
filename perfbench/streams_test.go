package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// allStreams serializes every request stream a seed generates.
func allStreams(t *testing.T, seed int64) []byte {
	t.Helper()
	all := map[string]any{"long": longStream(seed)}
	for c := 0; c < conns; c++ {
		all["pool"+string(rune('0'+c))] = poolStream(seed, c, 5000)
		for k := 0; k < mobileStreams; k++ {
			all["mobile"+string(rune('0'+c))+string(rune('0'+k))] = mobileStream(seed, c, k)
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	a, b := allStreams(t, 7), allStreams(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different request streams")
	}
	if bytes.Equal(a, allStreams(t, 8)) {
		t.Fatal("different seeds generated the same request streams")
	}
}

func TestStreamsStayInTheModel(t *testing.T) {
	// Times start near the origin and increase (per key for the pool),
	// and every server is one of the m.
	check := func(name string, server int, tm, prev float64) {
		if server < 1 || server > numServers {
			t.Fatalf("%s: server %d outside 1..%d", name, server, numServers)
		}
		if !(tm > prev) {
			t.Fatalf("%s: time %v does not increase past %v", name, tm, prev)
		}
	}
	long := longStream(1)
	if len(long) != longN || long[0].Time > 10 {
		t.Fatalf("session_long stream: %d requests, first at %v", len(long), long[0].Time)
	}
	prev := 0.0
	for _, r := range long {
		check("session_long", int(r.Server), r.Time, prev)
		prev = r.Time
	}
	last := map[string]float64{}
	for _, r := range poolStream(1, 0, 20000) {
		check("pool_wide "+r.Item, int(r.Server), r.Time, last[r.Item])
		last[r.Item] = r.Time
	}
	if len(last) < poolItems*9/10 {
		t.Fatalf("pool stream touched only %d of %d items", len(last), poolItems)
	}
	prev = 0
	for _, r := range mobileStream(1, 1, 2) {
		check("mobile_batch", int(r.Server), r.Time, prev)
		prev = r.Time
	}
}

func TestPoolStreamPrefixIsStable(t *testing.T) {
	short, long := poolStream(3, 1, 100), poolStream(3, 1, 1000)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("request %d differs between stream lengths: %+v vs %+v", i, short[i], long[i])
		}
	}
}
