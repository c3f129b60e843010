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
	"time"

	"idonly/internal/engine"
	"idonly/internal/service"
	"idonly/internal/store"
)

// The service under test is configured exactly as cmd/idonly-serve
// defaults on this 2-core box. The values are pinned here, not read
// from that command, so a change to a flag default cannot silently
// move the baseline.
const (
	pinWorkers      = 2
	pinMaxInFlight  = 2
	pinMaxScenarios = 20000
	pinMaxN         = 256
	pinDeadline     = 30 * time.Second
	pinRunHistory   = 64
	pinEventBuffer  = 1024

	// maxClients bounds the load generator: closed-loop callers, one
	// connection each, never more than the box has cores.
	maxClients = 2
)

// server is one store + service + loopback HTTP listener, all inside
// the benchmark process.
type server struct {
	st     *store.Store
	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	openAt, newAt time.Time // when store.Open and service.New began
	openNS, newNS int64     // and how long each took
}

// startServer opens the store rooted at dir (creating it if needed)
// and serves the sweep service over it on a loopback TCP port.
func startServer(dir string) (*server, error) {
	t0 := time.Now()
	st, err := store.Open(dir) // no hot LRU, no size bound: the serve defaults
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	svc := service.New(service.Config{
		Store:            st,
		Workers:          pinWorkers,
		MaxInFlight:      pinMaxInFlight,
		MaxScenarios:     pinMaxScenarios,
		MaxN:             pinMaxN,
		ScenarioDeadline: pinDeadline,
		RunHistory:       pinRunHistory,
		EventBuffer:      pinEventBuffer,
	})
	t2 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		st:     st,
		srv:    &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxClients,
				MaxIdleConnsPerHost: maxClients,
			},
		},
		openAt: t0,
		newAt:  t1,
		openNS: t1.Sub(t0).Nanoseconds(),
		newNS:  t2.Sub(t1).Nanoseconds(),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the listener, waits for the serving goroutine, and
// closes the store.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.st.Close())
}

// sweepReply is what a client keeps of one POST /v1/sweep.
type sweepReply struct {
	status    int
	body      []byte
	coalesced bool // X-Idonly-Coalesced: served by joining an in-flight computation
	computed  string
}

// retries429 is how often a client resends a sweep the admission bound
// refused before the op counts as failed; it waits 1 ms longer before
// each try, 45 ms in all.
const retries429 = 9

// sweep POSTs one request body and reads the whole reply. format is
// "canonical" or "" (the default NDJSON stream). The service frees a
// finished sweep's in-flight slot just after it wakes the waiting
// request, so a closed-loop client's next sweep can arrive while the
// slot still counts as taken — about once in 100 000 requests here,
// when the host takes the CPU from the goroutine in between — and be
// refused with 429. Like any client of the service it waits and sends
// the sweep again, and the op's time covers the retries. GET /v1/stats
// counts the refusals (service.rejected).
func (s *server) sweep(body []byte, format string) (reply sweepReply, err error) {
	url := s.url + "/v1/sweep"
	if format != "" {
		url += "?format=" + format
	}
	for try := 0; try <= retries429; try++ {
		time.Sleep(time.Duration(try) * time.Millisecond)
		if reply, err = s.post(url, body); err != nil || reply.status != http.StatusTooManyRequests {
			break
		}
	}
	return reply, err
}

func (s *server) post(url string, body []byte) (sweepReply, error) {
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return sweepReply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return sweepReply{}, fmt.Errorf("reading sweep reply: %w", err)
	}
	return sweepReply{
		status:    resp.StatusCode,
		body:      b,
		coalesced: resp.Header.Get("X-Idonly-Coalesced") == "1",
		computed:  resp.Header.Get("X-Idonly-Computed"),
	}, nil
}

// stats reads GET /v1/stats, the service's public counters.
func (s *server) stats() (service.Counters, error) {
	var c service.Counters
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return c, nil
}

// sweepBody renders a grid as the POST /v1/sweep request body.
func sweepBody(g engine.Grid) []byte {
	b, err := json.Marshal(service.SweepRequest{Grid: &g})
	if err != nil {
		panic(err) // a Grid of strings and integers always marshals
	}
	return b
}

// oracle computes a grid's canonical report bytes on one worker with
// no store and no hooks: the reference every served reply must equal.
func oracle(g engine.Grid) ([]byte, *engine.Report, error) {
	rep := engine.RunAll(g.Scenarios(), engine.Options{Workers: 1, Grid: g.Name})
	if errs := rep.Errors(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("oracle: scenario %s failed: %s", errs[0].Scenario.Name, errs[0].Err)
	}
	b, err := rep.CanonicalBytes()
	return b, rep, err
}
