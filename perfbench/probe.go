package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// refService is a reference HTTP service built from the standard library
// only: a handler that decodes a small JSON request and encodes a small
// JSON reply, like a pool request and its decision, served on its own
// loopback listener in this process. Every call of a workload's timed
// closed loop is followed, outside its timing, by one reference call from
// the same goroutine, so the two see the same machine at the same moment.
// The reference's code is the same on every commit of the repository, so
// what moves its latency is chiefly the machine: the host can make every
// instruction of a two-core virtual machine a fifth to twice as slow for
// minutes at a time, which stolen-time accounting barely shows. The gated
// latency is the workload's median over the reference's; the absolute
// figures are in the report.
type refService struct {
	hs      *http.Server
	served  chan error
	url     string
	clients [conns]*http.Client
}

type refRequest struct {
	Tenant string  `json:"tenant"`
	Item   string  `json:"item"`
	Server int     `json:"server"`
	T      float64 `json:"t"`
}

type refReply struct {
	N       int     `json:"n"`
	Server  int     `json:"server"`
	T       float64 `json:"t"`
	Cost    float64 `json:"cost"`
	Hit     bool    `json:"hit"`
	Revived bool    `json:"revived"`
	Item    string  `json:"item"`
}

func startRefService() (*refService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ref", func(w http.ResponseWriter, r *http.Request) {
		var req refRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(refReply{N: len(req.Item), Server: req.Server, T: req.T,
			Cost: req.T * float64(req.Server), Hit: req.Server%2 == 0, Item: req.Item})
	})
	s := &refService{
		hs:     &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/ref",
	}
	for i := range s.clients {
		// One keep-alive connection per workload connection, so a
		// reference call never waits for the other connection's.
		s.clients[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// refCalls accumulates the reference calls one load goroutine made.
type refCalls struct {
	lat []float64     // ms per call
	cpu time.Duration // process CPU time while they ran
}

func (r *refCalls) add(o refCalls) {
	r.lat = append(r.lat, o.lat...)
	r.cpu += o.cpu
}

// call makes reference call i on connection c, checks its reply, and
// adds its wall and process CPU time to acc.
func (s *refService) call(c, i int, acc *refCalls) error {
	cpu0, t0 := cpuTime(), time.Now()
	var body bytes.Buffer
	req := refRequest{Tenant: "ref", Item: "item-" + strconv.Itoa(i%poolItems), Server: i%numServers + 1, T: float64(i) / 64}
	if err := json.NewEncoder(&body).Encode(req); err != nil {
		return err
	}
	resp, err := s.clients[c].Post(s.url, "application/json", &body)
	if err != nil {
		return fmt.Errorf("reference call: %w", err)
	}
	defer resp.Body.Close()
	var rep refReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("reference reply: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || rep.Item != req.Item || rep.Server != req.Server {
		return fmt.Errorf("reference reply %d %+v to %+v", resp.StatusCode, rep, req)
	}
	acc.lat = append(acc.lat, ms(time.Since(t0)))
	acc.cpu += cpuTime() - cpu0
	return nil
}

// close stops the reference service and waits for it.
func (s *refService) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
