package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
)

// POST /v1/session/{id}/requests is the batch-first ingestion path: an
// ordered batch of requests serves under ONE entry-lock acquisition and
// one HTTP round-trip, instead of one of each per request. Two bodies are
// accepted:
//
//   - JSON: {"requests": [{"server": 2, "t": 0.5}, ...]} — or the bare
//     array as a shorthand. "time" is accepted as an alias of "t" to
//     match the single-request DTO.
//   - NDJSON (Content-Type: application/x-ndjson): one {"server", "t"}
//     object per line, the streaming shape a forwarder naturally emits.
//
// Failure is partial, mirroring datacache.Session.ServeBatch: the first
// request the engine rejects stops the batch; the reply reports the
// applied prefix's decisions, the first-rejected index and the reason,
// with status 200 (the batch itself was processed). Whole-batch failures
// use the error envelope: 404 unknown session, 409 closed session,
// 400 malformed body, oversized batch or a body over maxBodyBytes, 429
// inflight budget exceeded, 499 client gone. The /v1/pool/{id}/requests
// route shares the decoder and the serving path.

// MaxBatchRequests bounds one bulk-ingestion batch; larger batches are
// rejected with 400 before any request applies.
const MaxBatchRequests = 65536

// BatchRequestItem is one {server, t} pair of a bulk batch.
type BatchRequestItem struct {
	Server model.ServerID `json:"server"`
	T      float64        `json:"t,omitempty"`
	Time   float64        `json:"time,omitempty"` // alias of t
}

// at returns the request instant, honoring the t/time alias.
func (b BatchRequestItem) at() float64 {
	if b.T != 0 {
		return b.T
	}
	return b.Time
}

// SessionBatchRequest is the JSON body of POST /v1/session/{id}/requests.
type SessionBatchRequest struct {
	Requests []BatchRequestItem `json:"requests"`
}

// BatchDecision is one applied request's outcome inside a batch reply —
// the same readout a single POST {id}/request returns.
type BatchDecision struct {
	Server  model.ServerID `json:"server"`
	Time    float64        `json:"time"`
	Hit     bool           `json:"hit"`
	From    model.ServerID `json:"from,omitempty"`
	Cost    float64        `json:"cost"`
	Optimal float64        `json:"optimal"`
	Ratio   float64        `json:"ratio"`
	Regret  float64        `json:"regret"` // online cost delta − optimum delta
}

// SessionBatchResponse is the bulk-ingestion reply: per-request decisions
// for the applied prefix, partial-failure standing, and the post-batch
// cost/optimum/ratio snapshot.
type SessionBatchResponse struct {
	ID            string          `json:"id"`
	N             int             `json:"n"`       // total requests served after the batch
	Applied       int             `json:"applied"` // requests of this batch that applied
	FirstRejected int             `json:"firstRejected"`
	RejectReason  string          `json:"rejectReason,omitempty"`
	Decisions     []BatchDecision `json:"decisions"`
	Cost          float64         `json:"cost"`
	Optimal       float64         `json:"optimal"`
	Ratio         float64         `json:"ratio"`
}

// decodeBatch reads a batch body of T items in any of its three accepted
// shapes (NDJSON, bare array, {"requests": [...]}) and enforces
// MaxBatchRequests on each. The request body is already bounded to
// maxBodyBytes by the route middleware.
func decodeBatch[T any](body io.Reader, ndjson bool) ([]T, error) {
	var items []T
	if ndjson {
		// json.Decoder frames NDJSON itself (values are self-delimiting),
		// so blank lines and ordinary newlines both work.
		dec := json.NewDecoder(body)
		for {
			var item T
			if err := dec.Decode(&item); err != nil {
				if errors.Is(err, io.EOF) {
					return items, nil
				}
				return nil, fmt.Errorf("bad NDJSON line %d: %w", len(items)+1, err)
			}
			if len(items) == MaxBatchRequests {
				return nil, fmt.Errorf("batch exceeds the %d-request bound", MaxBatchRequests)
			}
			items = append(items, item)
		}
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("reading batch body: %w", err)
	}
	raw = bytes.TrimSpace(raw)
	if bytes.HasPrefix(raw, []byte("[")) {
		if err := json.Unmarshal(raw, &items); err != nil {
			return nil, fmt.Errorf("bad batch array: %w", err)
		}
	} else {
		var obj struct {
			Requests []T `json:"requests"`
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&obj); err != nil {
			return nil, fmt.Errorf("bad batch body: %w", err)
		}
		items = obj.Requests
	}
	if len(items) > MaxBatchRequests {
		return nil, fmt.Errorf("batch of %d exceeds the %d-request bound", len(items), MaxBatchRequests)
	}
	return items, nil
}

// serveBatch is the POST {id}/requests route of either kind: decode a
// batch of T items and serve the op newOp builds from it under one
// entry-lock acquisition.
func serveBatch[T any, U servingUnit](s *Server, w http.ResponseWriter, r *http.Request, e *servingEntry[U], newOp func([]T) serveOp) {
	items, err := decodeBatch[T](r.Body, strings.Contains(r.Header.Get("Content-Type"), "ndjson"))
	if err != nil {
		s.badBody(w, r, err)
		return
	}
	op := newOp(items)
	if e.serve(s, w, r, op, StatusClientClosedRequest) {
		s.batchSize.Observe(float64(len(items)))
		writeJSON(w, http.StatusOK, op.reply())
	}
}

// sessionBatch is one POST /v1/session/{id}/requests operation.
type sessionBatch struct {
	id   string
	u    *liveSession
	reqs []model.Request
	res  *datacache.ServeBatchResult
	runs [][]obs.Event // decision events attributed to each applied request
	n    int
}

func (o *sessionBatch) serve(ctx context.Context) (int, error) {
	o.u.evs = o.u.evs[:0]
	res, err := o.u.ServeBatch(ctx, o.reqs)
	if res == nil {
		return 0, err
	}
	o.res, o.n = res, o.u.N()
	o.runs = partitionEvents(o.u.evs, res.Decisions)
	if err != nil {
		// Only a context canceled mid-batch fails a batch on an open
		// session; the applied prefix stays applied.
		return len(res.Decisions), fmt.Errorf("batch aborted after %d of %d requests: %v", len(res.Decisions), len(o.reqs), err)
	}
	return len(res.Decisions), nil
}

func (o *sessionBatch) decision(i int) (datacache.Decision, string) {
	return o.res.Decisions[i], eventsLabel(o.runs[i])
}

func (o *sessionBatch) reply() interface{} {
	resp := SessionBatchResponse{
		ID:            o.id,
		N:             o.n,
		Applied:       len(o.res.Decisions),
		FirstRejected: o.res.FirstRejected,
		RejectReason:  o.res.RejectReason,
		Decisions:     make([]BatchDecision, len(o.res.Decisions)),
		Cost:          o.res.Cost,
		Optimal:       o.res.Optimal,
		Ratio:         o.res.Ratio,
	}
	for i, d := range o.res.Decisions {
		resp.Decisions[i] = BatchDecision{
			Server:  d.Server,
			Time:    d.Time,
			Hit:     d.Hit,
			From:    d.From,
			Cost:    d.Cost,
			Optimal: d.Optimal,
			Ratio:   d.Ratio,
			Regret:  d.Regret,
		}
	}
	return resp
}

// partitionEvents attributes a batch's decision-event stream to its
// applied requests. Events arrive in serve order: each request's run is
// the deadline expiries drained on its arrival, its own request/hit or
// transfer, and any policy actions at its instant — so a new KindRequest
// (or an event past the current request's time) opens the next run.
func partitionEvents(evs []obs.Event, decisions []datacache.Decision) [][]obs.Event {
	runs := make([][]obs.Event, len(decisions))
	if len(decisions) == 0 {
		return runs
	}
	j := 0
	seenReq := false
	for _, ev := range evs {
		if seenReq && j+1 < len(decisions) &&
			(ev.Kind == obs.KindRequest || ev.At > decisions[j].Time) {
			j++
			seenReq = false
		}
		if ev.Kind == obs.KindRequest {
			seenReq = true
		}
		runs[j] = append(runs[j], ev)
	}
	return runs
}
