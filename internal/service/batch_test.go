package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datacache/internal/offline"
	"datacache/internal/online"
)

func createFig6Session(t *testing.T, ts *httptest.Server) SessionState {
	t.Helper()
	var st SessionState
	resp := post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &st)
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("create: status %d, state %+v", resp.StatusCode, st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/session/"+st.ID {
		t.Fatalf("create Location = %q, want /v1/session/%s", loc, st.ID)
	}
	return st
}

// TestBatchEquivalenceFig6 serves the whole Fig. 6 trace as one batch and
// pins the reply to the sequential engine exactly: same per-request
// decisions, same final cost/optimum/ratio as the batch online runner.
func TestBatchEquivalenceFig6(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)

	seq, cm := offline.Fig6Instance()
	items := make([]BatchRequestItem, 0, seq.N())
	for _, r := range seq.Requests {
		items = append(items, BatchRequestItem{Server: r.Server, T: r.Time})
	}
	var out SessionBatchResponse
	resp := post(t, ts.URL+"/v1/session/"+st.ID+"/requests",
		SessionBatchRequest{Requests: items}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if out.Applied != seq.N() || out.FirstRejected != -1 || out.N != seq.N() {
		t.Fatalf("batch reply %+v, want all %d applied", out, seq.N())
	}
	if len(out.Decisions) != seq.N() {
		t.Fatalf("got %d decisions, want %d", len(out.Decisions), seq.N())
	}
	for i, d := range out.Decisions {
		if d.Server != seq.Requests[i].Server || d.Time != seq.Requests[i].Time {
			t.Errorf("decision %d echoed as %+v", i, d)
		}
	}

	run, err := online.Run(online.SpeculativeCaching{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != run.Stats.Cost {
		t.Errorf("batch cost %v != sequential cost %v", out.Cost, run.Stats.Cost)
	}
	opt, err := offline.FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Optimal != opt.Cost() {
		t.Errorf("batch optimum %v != FastDP %v", out.Optimal, opt.Cost())
	}
	// The per-decision trail must equal the single-request trail: its last
	// element carries the same running totals as the summary.
	lastD := out.Decisions[len(out.Decisions)-1]
	if lastD.Cost != out.Cost || lastD.Optimal != out.Optimal {
		t.Errorf("last decision %+v disagrees with summary cost=%v opt=%v", lastD, out.Cost, out.Optimal)
	}
}

// TestBatchEmpty: an empty batch is a no-op that still returns the
// current snapshot.
func TestBatchEmpty(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	var out SessionBatchResponse
	resp := post(t, ts.URL+"/v1/session/"+st.ID+"/requests",
		SessionBatchRequest{}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	if out.Applied != 0 || out.FirstRejected != -1 || out.N != 0 || len(out.Decisions) != 0 {
		t.Errorf("empty batch reply %+v", out)
	}
}

// TestBatchPartialApply: a non-monotonic timestamp mid-batch applies the
// prefix, reports the first-rejected index, and leaves the session
// serving from the applied prefix.
func TestBatchPartialApply(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	items := []BatchRequestItem{
		{Server: 2, T: 1.0},
		{Server: 3, T: 2.0},
		{Server: 4, T: 1.5}, // goes backwards — rejected
		{Server: 1, T: 3.0}, // never reached
	}
	var out SessionBatchResponse
	resp := post(t, ts.URL+"/v1/session/"+st.ID+"/requests",
		SessionBatchRequest{Requests: items}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch: status %d", resp.StatusCode)
	}
	if out.Applied != 2 || out.FirstRejected != 2 || out.RejectReason == "" {
		t.Fatalf("partial reply %+v, want applied=2 firstRejected=2", out)
	}
	if out.N != 2 || len(out.Decisions) != 2 {
		t.Errorf("n=%d decisions=%d after partial apply, want 2/2", out.N, len(out.Decisions))
	}
	// The session keeps serving from the applied prefix (t > 2.0 works).
	var d SessionDecision
	resp2 := post(t, ts.URL+"/v1/session/"+st.ID+"/request",
		StreamAppendRequest{Server: 1, Time: 2.5}, &d)
	if resp2.StatusCode != http.StatusOK || d.N != 3 {
		t.Errorf("post-batch request: status %d, decision %+v", resp2.StatusCode, d)
	}
}

// TestBatchAgainstClosedSession: once DELETE has torn the session down,
// the batch route answers 404 with the not_found code.
func TestBatchAgainstClosedSession(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	buf, _ := json.Marshal(SessionBatchRequest{Requests: []BatchRequestItem{{Server: 1, T: 1}}})
	resp2, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("batch on closed session: status %d", resp2.StatusCode)
	}
	var envelope ErrorBody
	if err := json.NewDecoder(resp2.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeNotFound {
		t.Errorf("code = %q, want %q", envelope.Error.Code, CodeNotFound)
	}
}

// TestBatchBodyShapes: the bare-array shorthand and the NDJSON stream
// produce the same decisions as the {"requests": [...]} object.
func TestBatchBodyShapes(t *testing.T) {
	ts := newTestServer(t)
	seq, _ := offline.Fig6Instance()

	serveAs := func(body []byte, contentType string) SessionBatchResponse {
		t.Helper()
		st := createFig6Session(t, ts)
		resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", contentType, resp.StatusCode)
		}
		var out SessionBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	items := make([]BatchRequestItem, 0, seq.N())
	for _, r := range seq.Requests {
		items = append(items, BatchRequestItem{Server: r.Server, T: r.Time})
	}
	objBody, _ := json.Marshal(SessionBatchRequest{Requests: items})
	arrBody, _ := json.Marshal(items)
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for _, it := range items {
		enc.Encode(it)
	}

	obj := serveAs(objBody, "application/json")
	arr := serveAs(arrBody, "application/json")
	ndj := serveAs(nd.Bytes(), "application/x-ndjson")
	for name, got := range map[string]SessionBatchResponse{"bare array": arr, "ndjson": ndj} {
		if got.Applied != obj.Applied || got.Cost != obj.Cost || got.Optimal != obj.Optimal {
			t.Errorf("%s reply %+v differs from object-shape reply %+v", name, got, obj)
		}
	}

	// "time" is accepted as an alias of "t".
	aliasSt := createFig6Session(t, ts)
	alias := []byte(`{"requests": [{"server": 2, "time": 0.5}]}`)
	resp, err := http.Post(ts.URL+"/v1/session/"+aliasSt.ID+"/requests", "application/json", bytes.NewReader(alias))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SessionBatchResponse
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK || out.Applied != 1 || out.Decisions[0].Time != 0.5 {
		t.Errorf(`"time" alias: status %d, reply %+v`, resp.StatusCode, out)
	}
}

// TestBatchMalformedBodies: garbage and wrong-shape bodies answer 400
// with the bad_request code and touch nothing.
func TestBatchMalformedBodies(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	for name, body := range map[string]string{
		"not json":      `,,,`,
		"unknown field": `{"requestz": []}`,
		"bad ndjson":    `{"server": 1, "t": 1}` + "\n" + `nope`,
	} {
		ct := "application/json"
		if strings.Contains(name, "ndjson") {
			ct = "application/x-ndjson"
		}
		resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope ErrorBody
		json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d code %q", name, resp.StatusCode, envelope.Error.Code)
		}
	}
	// The session is untouched by the malformed attempts.
	var got SessionState
	resp, err := http.Get(ts.URL + "/v1/session/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.N != 0 {
		t.Errorf("session advanced to n=%d by rejected bodies", got.N)
	}
}

// servingKindCase drives one kind of serving entry through the shared
// serving path: its single and batch bodies, and its registered entry's
// lock, inflight counter and unit Close.
type servingKindCase struct {
	kind          string
	single, batch string // one-request bodies of the two serve routes
	entry         func(srv *Server, id string) (entryLock, *atomic.Int64, func() error)
}

// createEntry opens a session or a pool and returns its id.
func createEntry(t *testing.T, srv *Server, kind string) string {
	t.Helper()
	rec, _ := serveDirect(context.Background(), srv, http.MethodPost, "/v1/"+kind, `{"m":4,"origin":1,"model":{"mu":1,"lambda":1}}`)
	var st struct{ ID string }
	if rec.Code != http.StatusCreated || json.NewDecoder(rec.Body).Decode(&st) != nil {
		t.Fatalf("create %s: status %d", kind, rec.Code)
	}
	return st.ID
}

var servingKinds = []servingKindCase{
	{
		kind:   "session",
		single: `{"server":2,"time":0.5}`,
		batch:  `{"requests":[{"server":2,"t":0.5}]}`,
		entry: func(srv *Server, id string) (entryLock, *atomic.Int64, func() error) {
			e, _ := srv.sessions.get(id)
			return e.lk, &e.inflight, func() error { _, err := e.unit.Close(); return err }
		},
	},
	{
		kind:   "pool",
		single: `{"item":"a","server":2,"t":0.5}`,
		batch:  `{"requests":[{"item":"a","server":2,"t":0.5}]}`,
		entry: func(srv *Server, id string) (entryLock, *atomic.Int64, func() error) {
			e, _ := srv.pools.get(id)
			return e.lk, &e.inflight, e.unit.Close
		},
	},
}

// serveDirect runs one request through the handler in the test's own
// goroutine, so the entry state a case sets up is ordered before it.
func serveDirect(ctx context.Context, srv *Server, method, path, body string) (*httptest.ResponseRecorder, ErrorBody) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx))
	var envelope ErrorBody
	if rec.Code >= 400 {
		json.NewDecoder(rec.Body).Decode(&envelope)
	}
	return rec, envelope
}

// TestBatchInflightShed pins the whole-operation failures of the shared
// serving path on both kinds and both serve routes: 429 overloaded with
// Retry-After once the inflight budget is exhausted (and 200 again once
// the slot frees), 409 conflict on an entry that is closed but still
// registered, and 499 canceled when the client gives up while another
// operation holds the entry lock.
func TestBatchInflightShed(t *testing.T) {
	srv := New(WithInflightBudget(1))
	bg := context.Background()
	for _, k := range servingKinds {
		for _, route := range []struct{ op, body string }{{"request", k.single}, {"requests", k.batch}} {
			newEntry := func(t *testing.T) (string, entryLock, *atomic.Int64, func() error) {
				t.Helper()
				id := createEntry(t, srv, k.kind)
				lk, inflight, closeUnit := k.entry(srv, id)
				return "/v1/" + k.kind + "/" + id + "/" + route.op, lk, inflight, closeUnit
			}
			t.Run(k.kind+"/"+route.op+"/overloaded", func(t *testing.T) {
				path, _, inflight, _ := newEntry(t)
				inflight.Add(1) // occupy the single budget slot
				rec, env := serveDirect(bg, srv, http.MethodPost, path, route.body)
				if rec.Code != http.StatusTooManyRequests || env.Error.Code != CodeOverloaded {
					t.Errorf("shed: status %d code %q, want 429 %q", rec.Code, env.Error.Code, CodeOverloaded)
				}
				if rec.Header().Get("Retry-After") == "" {
					t.Error("shed reply missing Retry-After")
				}
				inflight.Add(-1)
				if rec, _ := serveDirect(bg, srv, http.MethodPost, path, route.body); rec.Code != http.StatusOK {
					t.Errorf("after release: status %d, want 200", rec.Code)
				}
			})
			t.Run(k.kind+"/"+route.op+"/closed", func(t *testing.T) {
				path, lk, _, closeUnit := newEntry(t)
				_ = lk.lock(bg)
				err := closeUnit()
				lk.unlock()
				if err != nil {
					t.Fatal(err)
				}
				rec, env := serveDirect(bg, srv, http.MethodPost, path, route.body)
				if rec.Code != http.StatusConflict || env.Error.Code != CodeConflict {
					t.Errorf("closed: status %d code %q, want 409 %q", rec.Code, env.Error.Code, CodeConflict)
				}
			})
			t.Run(k.kind+"/"+route.op+"/canceled", func(t *testing.T) {
				path, lk, inflight, _ := newEntry(t)
				_ = lk.lock(bg)
				ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
				rec, env := serveDirect(ctx, srv, http.MethodPost, path, route.body)
				cancel()
				lk.unlock()
				if rec.Code != StatusClientClosedRequest || env.Error.Code != CodeCanceled {
					t.Errorf("canceled: status %d code %q, want 499 %q", rec.Code, env.Error.Code, CodeCanceled)
				}
				if n := inflight.Load(); n != 0 {
					t.Errorf("inflight slot leaked: %d after a canceled wait", n)
				}
			})
		}
	}
}

// paddedBody streams prefix, n spaces and suffix without holding them.
func paddedBody(prefix string, n int64, suffix string) io.Reader {
	return io.MultiReader(strings.NewReader(prefix), io.LimitReader(spaces{}, n), strings.NewReader(suffix))
}

type spaces struct{}

var spaceBlock = bytes.Repeat([]byte{' '}, 32<<10)

func (spaces) Read(p []byte) (int, error) {
	return copy(p, spaceBlock), nil
}

// TestBodyBound: every JSON body, create and serve alike, is cut off at
// maxBodyBytes with 400 bad_request naming the bound; the same bodies
// with short padding are accepted. The over-bound bodies are generated
// on the fly, never held in memory.
func TestBodyBound(t *testing.T) {
	// Each over-bound body makes the server buffer up to the bound;
	// collect eagerly so that garbage does not pile up between cases.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	srv := New()
	sess, pool := createEntry(t, srv, "session"), createEntry(t, srv, "pool")
	cases := []struct {
		name, path, ctype, prefix, suffix string
	}{
		{"create", "/v1/session", "application/json", `{"m":4,`, `"model":{"mu":1,"lambda":1}}`},
		{"single", "/v1/pool/" + pool + "/request", "application/json", `{"item":"a",`, `"server":2,"t":1}`},
		{"json batch", "/v1/session/" + sess + "/requests", "application/json", `{"requests":[`, `{"server":2,"t":1}]}`},
		{"ndjson batch", "/v1/pool/" + pool + "/requests", "application/x-ndjson", `{"item":"b",`, `"server":2,"t":1}` + "\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, c.path, paddedBody(c.prefix, maxBodyBytes, c.suffix))
			req.Header.Set("Content-Type", c.ctype)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			var env ErrorBody
			json.NewDecoder(rec.Body).Decode(&env)
			if rec.Code != http.StatusBadRequest || env.Error.Code != CodeBadRequest ||
				!strings.Contains(env.Error.Message, strconv.Itoa(maxBodyBytes)) {
				t.Errorf("over-bound body: status %d, envelope %+v, want 400 naming %d", rec.Code, env.Error, maxBodyBytes)
			}

			req = httptest.NewRequest(http.MethodPost, c.path, paddedBody(c.prefix, 16, c.suffix))
			req.Header.Set("Content-Type", c.ctype)
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code >= 300 {
				t.Errorf("short-padded body: status %d %s", rec.Code, rec.Body)
			}
		})
	}
}

// FuzzDecodeBatch drives arbitrary bytes through the one batch decoder,
// as NDJSON or JSON and as session or pool items: it must never panic,
// must return an error or at most MaxBatchRequests items, and whatever
// it accepts must re-encode and decode to equal values.
func FuzzDecodeBatch(f *testing.F) {
	for _, body := range []string{
		`{"requests":[{"server":2,"t":0.5},{"server":3,"time":0.8}]}`,
		`[{"server":1,"t":1},{"tenant":"acme","item":"x","server":2,"t":2}]`,
		"{\"item\":\"x\",\"server\":1,\"t\":1}\n\n{\"server\":2,\"t\":2}\n",
		`{"requestz":[]}`,
		`[{"server":1e3}]`,
		`,,,`,
		``,
	} {
		for _, ndjson := range []bool{false, true} {
			f.Add([]byte(body), ndjson, false)
			f.Add([]byte(body), ndjson, true)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, ndjson, pool bool) {
		if pool {
			checkDecodeBatch[PoolServeRequest](t, body, ndjson)
		} else {
			checkDecodeBatch[BatchRequestItem](t, body, ndjson)
		}
	})
}

func checkDecodeBatch[T comparable](t *testing.T, body []byte, ndjson bool) {
	items, err := decodeBatch[T](bytes.NewReader(body), ndjson)
	if err != nil {
		return
	}
	if len(items) > MaxBatchRequests {
		t.Fatalf("accepted %d items, over the %d-request bound", len(items), MaxBatchRequests)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if ndjson {
		for _, it := range items {
			if err := enc.Encode(it); err != nil {
				t.Fatal(err)
			}
		}
	} else if err := enc.Encode(items); err != nil {
		t.Fatal(err)
	}
	again, err := decodeBatch[T](&buf, ndjson)
	if err != nil {
		t.Fatalf("re-encoded batch %q rejected: %v", buf.Bytes(), err)
	}
	if len(again) != len(items) {
		t.Fatalf("re-decoded %d items, want %d", len(again), len(items))
	}
	for i := range items {
		if again[i] != items[i] {
			t.Fatalf("item %d re-decoded as %+v, want %+v", i, again[i], items[i])
		}
	}
}

// TestBatchMetrics: serving a batch moves the batch-size histogram and
// the shed counter stays where the shed test left it (zero here).
func TestBatchMetrics(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	buf, _ := json.Marshal(SessionBatchRequest{Requests: []BatchRequestItem{
		{Server: 2, T: 0.5}, {Server: 3, T: 0.8},
	}})
	resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(metrics.Body)
	metrics.Body.Close()
	text := body.String()
	if !strings.Contains(text, "dc_session_batch_size_count 1") {
		t.Errorf("batch-size histogram not observed:\n%s", grepLines(text, "dc_session_batch_size"))
	}
	if !strings.Contains(text, "dc_registry_shard_sessions") {
		t.Error("per-shard session gauges missing from /metrics")
	}
}

func grepLines(text, needle string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
