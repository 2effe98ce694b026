package main

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"time"

	"datacache/internal/obs"
)

// The traced run replays a workload's request streams in-process and
// calls each layer's public function itself, in the order
// datacache.Session.Serve and Pool.Serve call them, with one span around
// every call. Spans are kept in memory and written out when the run ends;
// per-layer allocations come from a second, untimed replay that brackets
// the calls of every allocStride-th request with runtime.ReadMemStats.

// layer identifies one span kind of the traced run.
type layer int

const (
	lRequest  layer = iota // root: one request
	lServe                 // the Session.Serve composition (datacache glue)
	lPool                  // Pool.Serve's key lookup, LRU eviction and instantiation
	lDecide                // engine.Stream.Serve
	lPlanner               // planner.Hybrid.OnRequest, inside lDecide
	lAppend                // offline.Incremental.Append (+ Cost)
	lPrice                 // engine.Stream.Cost
	lShadows               // engine.ShadowSet.Serve and the shadow alert trackers
	lSLO                   // obs.SLO.Observe
	lRecorder              // recorder.Writer.Append
	lPublish               // obs gauge With(...).Set, as the service publishes per serve
	lSample                // tsdb.Store.Sample on the service's registry
	lDecode                // stdlib JSON decode of the request body into the service DTO
	lHandler               // service.Server.ServeHTTP, in-process
	lEncode                // stdlib JSON encode of the reply DTO
	numLayers
)

var layerNames = [numLayers]string{
	"request", "datacache.serve", "datacache.pool", "engine.decide", "planner.on_request",
	"offline.append", "engine.price", "engine.shadows", "obs.slo_observe", "recorder.append",
	"obs.publish", "tsdb.sample", "service.decode", "service.handler", "service.encode",
}

// allocStride: the allocation replay brackets every allocStride-th
// request (ReadMemStats stops the world, so bracketing every call would
// dominate the replay).
const allocStride = 4

// frame is one open span.
type frame struct {
	l              layer
	id             uint64
	start          time.Time
	child          time.Duration
	m0, b0         uint64
	childM, childB uint64
}

// spanRec is a recorded span. It holds no pointers, so the garbage
// collector never scans the span buffer and keeping every span in memory
// does not slow the layers being timed; ids become hex strings only when
// the spans are written out.
type spanRec struct {
	request    int32 // index into traceIDs
	l          layer
	id, parent uint64
	start, dur int64 // Unix ns, ns
}

// layerTracer records spans (timed replay) or MemStats deltas (allocation
// replay) around layer calls, and accumulates each layer's self time:
// its span's duration minus the part its child spans cover.
type layerTracer struct {
	spans    bool
	allocs   bool // the allocation replay
	sampling bool // this request is bracketed (allocation replay)
	rng      *rand.Rand
	traceIDs [][2]uint64
	reqIdx   int32
	stack    []frame
	out      []spanRec
	ms       runtime.MemStats

	self   [numLayers]time.Duration
	total  [numLayers]time.Duration
	calls  [numLayers]int
	mCalls [numLayers]int
	selfM  [numLayers]uint64
	selfB  [numLayers]uint64
}

func newLayerTracer(seed int64, spans, allocs bool) *layerTracer {
	return &layerTracer{spans: spans, allocs: allocs, rng: rngFor(seed, 0x7370616e)} // "span"
}

// request opens request i's root span. Request i of every replay of one
// stream shares one trace id.
func (t *layerTracer) request(i int) {
	if t.spans {
		for len(t.traceIDs) <= i {
			t.traceIDs = append(t.traceIDs, [2]uint64{t.rng.Uint64(), t.rng.Uint64()})
		}
		t.reqIdx = int32(i)
	}
	t.sampling = t.allocs && i%allocStride == 0
	t.begin(lRequest)
}

func (t *layerTracer) begin(l layer) {
	f := frame{l: l}
	if t.spans {
		f.id = t.rng.Uint64()
	}
	if t.sampling {
		runtime.ReadMemStats(&t.ms)
		f.m0, f.b0 = t.ms.Mallocs, t.ms.TotalAlloc
	}
	f.start = time.Now()
	t.stack = append(t.stack, f)
}

func (t *layerTracer) end() time.Duration {
	now := time.Now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(f.start)
	t.self[f.l] += d - f.child
	t.total[f.l] += d
	t.calls[f.l]++
	var dm, db uint64
	if t.sampling {
		runtime.ReadMemStats(&t.ms)
		dm, db = t.ms.Mallocs-f.m0, t.ms.TotalAlloc-f.b0
		t.selfM[f.l] += dm - f.childM
		t.selfB[f.l] += db - f.childB
		t.mCalls[f.l]++
	}
	var parent uint64
	if n := len(t.stack); n > 0 {
		p := &t.stack[n-1]
		p.child += d
		p.childM += dm
		p.childB += db
		parent = p.id
	}
	if t.spans {
		t.out = append(t.out, spanRec{
			request: t.reqIdx, l: f.l, id: f.id, parent: parent,
			start: f.start.UnixNano(), dur: int64(d),
		})
	}
	return d
}

// perCall is a layer's mean self time per call.
func (t *layerTracer) perCall(l layer) time.Duration {
	if t.calls[l] == 0 {
		return 0
	}
	return t.self[l] / time.Duration(t.calls[l])
}

// writeSpans writes the spans the tracers recorded as NDJSON, one
// obs.Span-shaped object per line.
func writeSpans(path string, tracers ...*layerTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	hexID := func(words ...uint64) string {
		b := make([]byte, 0, 8*len(words))
		for _, x := range words {
			b = binary.BigEndian.AppendUint64(b, x)
		}
		return hex.EncodeToString(b)
	}
	for _, t := range tracers {
		for _, r := range t.out {
			sp := obs.Span{
				TraceID:  hexID(t.traceIDs[r.request][:]...),
				SpanID:   hexID(r.id),
				Name:     layerNames[r.l],
				Start:    time.Unix(0, r.start),
				Duration: time.Duration(r.dur).Seconds(),
			}
			if r.parent != 0 {
				sp.ParentID = hexID(r.parent)
			}
			if err := enc.Encode(&sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
