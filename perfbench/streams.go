package main

import (
	"fmt"
	"math/rand"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/trajectory"
	"datacache/internal/workload"
)

// The cost model and cluster every workload serves: μ = λ = 1 (so the
// speculative window Δt is 1), m = 16 servers, the origin copy on server 1
// at time 0. Every stream's times start near 0, so no time-origin offset
// can trivialise the competitive ratio.
var costModel = datacache.Unit

const (
	numServers = 16
	origin     = 1

	// longN is the length of the one never-rotated session_long session.
	// It is fixed in requests, not seconds, so every commit serves the
	// same input; the run repeats the whole session until its time is up.
	longN = 4000

	// poolItems is pool_wide's key space and poolMaxItems its live-engine
	// bound: four keys per live engine, so LRU eviction and
	// re-instantiation run on most requests.
	poolItems    = 4096
	poolMaxItems = 1024

	// mobileRotate is how many requests a mobile_batch session serves
	// before it is closed and reopened, mobileBatch the requests per call,
	// and mobileStreams the distinct session streams each connection
	// cycles through.
	mobileRotate  = 4096
	mobileBatch   = 64
	mobileStreams = 4
)

// mix is a splitmix64 step over a and b: the per-stream seed derivation,
// so every (workload, connection, stream) gets an independent source.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rngFor(seed int64, parts ...uint64) *rand.Rand {
	s := uint64(seed)
	for _, p := range parts {
		s = mix(s, p)
	}
	return rand.New(rand.NewSource(int64(s)))
}

// Stream tags for rngFor.
const (
	tagLong = iota + 1
	tagPool
	tagPoolItems
	tagMobile
)

// longStream is session_long's request stream: Zipf(1.2) popularity over
// the 16 servers with exponential gaps of mean Δt/2.
func longStream(seed int64) []model.Request {
	return workload.Zipf{M: numServers, S: 1.2, MeanGap: 0.5}.
		Generate(rngFor(seed, tagLong), longN).Requests
}

// poolReq is one pool_wide request.
type poolReq struct {
	Item   string
	Server model.ServerID
	Time   float64
}

// poolStream is connection c's pool_wide stream of n requests: items
// chosen uniformly from poolItems keys, servers Zipf(1.2), one global
// clock with exponential gaps, so each key's times increase. A prefix of
// the stream is the same stream at any length.
func poolStream(seed int64, c, n int) []poolReq {
	base := workload.Zipf{M: numServers, S: 1.2, MeanGap: 0.001}.
		Generate(rngFor(seed, tagPool, uint64(c)), n).Requests
	items := rngFor(seed, tagPoolItems, uint64(c))
	out := make([]poolReq, n)
	for i, r := range base {
		out[i] = poolReq{Item: itemName(items.Intn(poolItems)), Server: r.Server, Time: r.Time}
	}
	return out
}

func itemName(i int) string { return fmt.Sprintf("item-%04d", i) }

// mobileField is the 16-station cellular layout mobile users move over.
var mobileField = trajectory.GridField(numServers, 1)

// mobileStream is the k-th session stream of connection c: one mobile
// user hopping between neighbouring cells (stay 0.9, 3 neighbours),
// mobileRotate requests long.
func mobileStream(seed int64, c, k int) []model.Request {
	return trajectory.MarkovCells{Field: mobileField, Stay: 0.9, Neighbors: 3, ReqGap: 0.9}.
		Generate(rngFor(seed, tagMobile, uint64(c), uint64(k)), mobileRotate).Requests
}
