package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"datacache/client"
	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
	"datacache/internal/recorder"
	"datacache/internal/service"
)

// conns is the number of client connections every workload uses: the
// benchmark is sized for a two-core machine, where the client and the
// service share the cores in one process.
const conns = 2

// historyInterval is dcserved's default -history-interval.
const historyInterval = time.Second

// env is one service under test: the shipped HTTP handler built with the
// options cmd/dcserved sets by default, served on a loopback listener in
// this process, plus one typed client per connection.
type env struct {
	srv         *service.Server
	hs          *http.Server
	served      chan error
	stopSampler func()
	rec         *recorder.Writer // mobile_batch only
	closeRec    func() (recorder.Stats, error)
	clients     [conns]*client.Client
	transports  [conns]*http.Transport
	ref         *refService // started after set-up; see refService
}

// traceSeed derives the service's span-id seed from the workload seed.
// dcserved's default of 0 means "derive from the clock", which would make
// runs of one seed differ.
func traceSeed(seed int64) int64 {
	s := mix(uint64(seed), 0x7472616365) // "trace"
	if s == 0 {
		s = 1
	}
	return int64(s)
}

// serviceOptions are cmd/dcserved's defaults: runtime metrics, the 1 s
// history sampler, trace sampling 1, and the default trace cap, SLO window,
// inflight budget, span cap and shadow margin. The request logger stays
// the embedded default (discard) so log I/O is not measured.
func serviceOptions(seed int64, rec *recorder.Writer) []service.Option {
	opts := []service.Option{
		service.WithTraceCap(service.DefaultTraceCap),
		service.WithSLOWindow(service.DefaultSLOWindow),
		service.WithInflightBudget(service.DefaultInflightBudget),
		service.WithShadowMargin(0),
		service.WithTraceSampling(1),
		service.WithTraceSeed(traceSeed(seed)),
		service.WithTraceRegret(0),
		service.WithSpanCap(obs.DefaultSpanCap),
		service.WithRuntimeMetrics(),
		service.WithHistoryOptions(tsdb.Options{Interval: historyInterval}),
	}
	if rec != nil {
		opts = append(opts, service.WithRecorder(rec))
	}
	return opts
}

// startEnv builds and starts a service; recorded attaches a flight
// recorder (see withRecorder).
func startEnv(seed int64, workdir string, recorded bool) (*env, error) {
	e := &env{}
	var err error
	if e.rec, e.closeRec, err = withRecorder(workdir, recorded); err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	e.srv = service.New(serviceOptions(seed, e.rec)...)
	e.stopSampler = e.srv.StartHistorySampler(historyInterval)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.hs = &http.Server{Handler: e.srv, ReadHeaderTimeout: 5 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := range e.clients {
		// One transport with one connection per client: each load
		// generator goroutine owns exactly one keep-alive connection.
		e.transports[i] = &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		e.clients[i] = client.New(base,
			client.WithHTTPClient(&http.Client{Transport: e.transports[i], Timeout: 60 * time.Second}),
			client.WithTraceSeed(seed*conns+int64(i)+1))
	}
	for _, c := range e.clients {
		if _, _, err := c.Health(context.Background()); err != nil {
			e.close()
			return nil, fmt.Errorf("health: %w", err)
		}
	}
	return e, nil
}

// close stops the listener, the sampler and the recorder, and waits for
// the serving goroutine to return.
func (e *env) close() error {
	var errs []error
	for _, t := range e.transports {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := e.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
		cancel()
		if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
	}
	if e.ref != nil {
		if err := e.ref.close(); err != nil {
			errs = append(errs, fmt.Errorf("reference service: %w", err))
		}
	}
	if e.stopSampler != nil {
		e.stopSampler()
	}
	if e.closeRec != nil {
		if _, err := e.closeRec(); err != nil {
			errs = append(errs, fmt.Errorf("recorder close: %w", err))
		}
	}
	return errors.Join(errs...)
}
