package client

import (
	"context"
	"net/http"

	"datacache"
	"datacache/internal/model"
)

// Session is the client-side handle of one live serving session. Methods
// are safe for concurrent use as long as the underlying http.Client is
// (the default is); the server serializes operations per session.
type Session struct {
	c  *Client
	ID string
	// Created is the state returned at creation (zero for OpenSession
	// handles).
	Created SessionState
}

func (s *Session) path(suffix string) string {
	return "/v1/session/" + s.ID + suffix
}

// Serve submits one request and returns the decision with the running
// cost/optimum/ratio — the single-request path, one round-trip per
// request. Prefer ServeBatch for throughput.
func (s *Session) Serve(ctx context.Context, server datacache.ServerID, t float64) (Decision, error) {
	var out Decision
	body := struct {
		Server datacache.ServerID `json:"server"`
		Time   float64            `json:"time"`
	}{server, t}
	err := s.c.post(ctx, s.path("/request"), body, &out)
	return out, err
}

// ServeBatch submits an ordered batch under one round-trip and one
// server-side lock acquisition. The reply carries per-request decisions
// for the applied prefix, the first-rejected index (-1 when all applied)
// and the post-batch snapshot. A 429 (inflight budget) surfaces as an
// *APIError with IsOverloaded(err) true and a RetryAfter hint.
func (s *Session) ServeBatch(ctx context.Context, reqs []Request) (BatchResponse, error) {
	var out BatchResponse
	body := struct {
		Requests []Request `json:"requests"`
	}{reqs}
	err := s.c.post(ctx, s.path("/requests"), body, &out)
	return out, err
}

// ServeBatchNDJSON submits the same batch in the NDJSON streaming shape
// (Content-Type: application/x-ndjson, one {"server","t"} per line).
func (s *Session) ServeBatchNDJSON(ctx context.Context, reqs []Request) (BatchResponse, error) {
	var out BatchResponse
	err := postNDJSON(ctx, s.c, s.path("/requests"), reqs, &out)
	return out, err
}

// State reads the session's standing.
func (s *Session) State(ctx context.Context) (SessionState, error) {
	var out SessionState
	err := s.c.get(ctx, s.path(""), &out)
	return out, err
}

// Schedule reads the schedule realized so far (live copies truncated at
// the last request).
func (s *Session) Schedule(ctx context.Context) (*datacache.Schedule, error) {
	var out model.Schedule
	if err := s.c.get(ctx, s.path("/schedule"), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Trace reads the bounded ring of recent decision events.
func (s *Session) Trace(ctx context.Context) (TraceResponse, error) {
	var out TraceResponse
	err := s.c.get(ctx, s.path("/trace"), &out)
	return out, err
}

// SLO reads the rolling-window competitive-ratio tracker and the
// per-server cost breakdown.
func (s *Session) SLO(ctx context.Context) (SLOResponse, error) {
	var out SLOResponse
	err := s.c.get(ctx, s.path("/slo"), &out)
	return out, err
}

// Shadow reads the counterfactual policy standings: exact cumulative
// cost, hits, transfers, drops and decision divergence for every shadow
// policy running in lockstep, plus the live policy's own row. Fails
// with a not_found error when the session runs no shadows.
func (s *Session) Shadow(ctx context.Context) (ShadowResponse, error) {
	var out ShadowResponse
	err := s.c.get(ctx, s.path("/shadow"), &out)
	return out, err
}

// Record downloads the session's flight recording as raw bytes. mode
// selects the encoding ("binary" or "ndjson"); empty keeps the server's
// native one. Fails with a not_found error when the server runs without
// -record-dir. Download before Close: a closed session's id is gone.
func (s *Session) Record(ctx context.Context, mode string) ([]byte, error) {
	p := s.path("/record")
	if mode != "" {
		p += "?mode=" + mode
	}
	return s.c.getRaw(ctx, p)
}

// Close ends the session, returning the final state and schedule.
func (s *Session) Close(ctx context.Context) (CloseResponse, error) {
	var out CloseResponse
	err := s.c.do(ctx, http.MethodDelete, s.path(""), nil, "", &out)
	return out, err
}
