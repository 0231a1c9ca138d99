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
	"runtime"
	"time"

	"bright/internal/sim"
	"bright/internal/stream"
)

// Server settings: brightd's defaults (cmd/brightd flags), with the
// worker pool at nproc.
const (
	queueDepth   = 64
	cacheSize    = 256
	sweepSegment = 16
	maxSessions  = 8
	sessionIdle  = 2 * time.Minute
	sessionRing  = 256
)

// server is an in-process brightd on a loopback port.
type server struct {
	eng  *sim.Engine
	mgr  *stream.Manager
	hs   *http.Server
	url  string
	errc chan error
}

// startServer builds the engine, session manager and handler stack the
// way cmd/brightd does and serves them on 127.0.0.1. A non-nil composer
// replaces the production solvers with the traced composition.
func startServer(c *composer) (*server, error) {
	opts := sim.Options{
		Workers:      runtime.NumCPU(),
		QueueDepth:   queueDepth,
		CacheSize:    cacheSize,
		SweepSegment: sweepSegment,
	}
	if c != nil {
		// Both hooks: overriding Solver alone would turn sweep chains
		// into stateless solves (sim.Options.withDefaults).
		opts.Solver = c.solver
		opts.BatchChain = c.batchChain
	}
	eng := sim.New(opts)
	mgr := stream.NewManager(stream.Options{
		MaxSessions: maxSessions,
		IdleTimeout: sessionIdle,
		RingSize:    sessionRing,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopAll(context.Background(), nil, mgr, eng)
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		eng: eng,
		mgr: mgr,
		hs: &http.Server{
			Handler:           sim.WithAccessLog(sim.NewHandler(eng, sim.WithStreamManager(mgr))),
			ReadHeaderTimeout: 10 * time.Second,
		},
		url:  "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	go func() { s.errc <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down in brightd's order (HTTP, sessions, engine)
// and waits for the serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := stopAll(ctx, s.hs, s.mgr, s.eng)
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func stopAll(ctx context.Context, hs *http.Server, mgr *stream.Manager, eng *sim.Engine) error {
	var errs []error
	if hs != nil {
		errs = append(errs, hs.Shutdown(ctx))
	}
	errs = append(errs, mgr.Shutdown(ctx), eng.Shutdown(ctx))
	return errors.Join(errs...)
}

// client talks to one server over loopback HTTP. A non-nil tracer gets
// an http.request span per round trip.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed round trip.
type response struct {
	status int
	body   []byte
}

// do sends one request with an optional JSON body and reads the whole
// response.
func (c *client) do(ctx context.Context, method, path string, in any) (response, error) {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return response{}, err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return response{}, err
	}
	sp := c.tr.begin(spanHTTP, 0, "")
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.end()
		return response{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	sp.s.Req = resp.Header.Get("X-Request-ID")
	sp.end()
	if err != nil {
		return response{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return response{status: resp.StatusCode, body: blob}, nil
}

// waitHealthy polls /healthz until it answers 200.
func (c *client) waitHealthy(ctx context.Context) error {
	for {
		r, err := c.do(ctx, http.MethodGet, "/healthz", nil)
		if err == nil && r.status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became healthy: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
