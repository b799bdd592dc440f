package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
)

// The benchmark's tracing lives in its own files: wrappers around the
// calls into each layer's public functions. Nothing inside the program
// is instrumented for it.

// timedOracle forwards every question to inner and accumulates the
// wall time spent inside it. Batches stay batches, so the question
// structure the learner sees is unchanged. Learners and the session
// history call their oracle from one goroutine at a time, so the
// accumulators need no locking.
type timedOracle struct {
	inner     oracle.Oracle
	ns        int64
	questions int64
}

func (t *timedOracle) Ask(s boolean.Set) bool {
	start := time.Now()
	a := t.inner.Ask(s)
	t.ns += int64(time.Since(start))
	t.questions++
	return a
}

func (t *timedOracle) AskBatch(qs []boolean.Set) []bool {
	start := time.Now()
	a := oracle.AskAll(t.inner, qs)
	t.ns += int64(time.Since(start))
	t.questions += int64(len(qs))
	return a
}

// roundClock sits where qhornd's answer exchange sits, directly above
// the user: it times each round, the wait between the user handing
// back answers and the learner asking its next batch (or finishing).
// The user's own evaluation time is excluded.
type roundClock struct {
	inner   oracle.Oracle
	last    time.Time
	batches int
	m       *meter
}

// start arms the clock at the beginning of a session.
func (c *roundClock) start(inner oracle.Oracle, m *meter) {
	c.inner, c.m, c.batches, c.last = inner, m, 0, time.Now()
}

// finish records the last round, from the final answers to the end of
// the session.
func (c *roundClock) finish() { c.m.round(time.Since(c.last)) }

func (c *roundClock) Ask(s boolean.Set) bool {
	c.m.round(time.Since(c.last))
	c.batches++
	a := c.inner.Ask(s)
	c.last = time.Now()
	return a
}

func (c *roundClock) AskBatch(qs []boolean.Set) []bool {
	c.m.round(time.Since(c.last))
	c.batches++
	a := oracle.AskAll(c.inner, qs)
	c.last = time.Now()
	return a
}

// routeTimer wraps serve.Server.Handler and records the time spent
// inside it per route.
type routeTimer struct {
	next http.Handler
	mu   sync.Mutex
	ns   map[string][]int64
	seq  []int64 // handler time of every request in arrival order
}

// newRouteTimer returns a routeTimer; its next handler is set when a
// server starts.
func newRouteTimer() *routeTimer { return &routeTimer{ns: map[string][]int64{}} }

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.next.ServeHTTP(w, r)
	d := int64(time.Since(start))
	route := routeOf(r.Method, r.URL.Path)
	rt.mu.Lock()
	rt.ns[route] = append(rt.ns[route], d)
	rt.seq = append(rt.seq, d)
	rt.mu.Unlock()
}

// routeOf names the qhornd route of a request.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 1 && method == http.MethodPost:
		return "create"
	case len(parts) == 2 && method == http.MethodDelete:
		return "delete"
	case len(parts) == 2:
		return "info"
	default:
		return parts[len(parts)-1]
	}
}

// clientTransport wraps the client's HTTP transport. It records each
// exchange that delivers answers (POST …/answers) as a round in the
// meter m: the time from sending the request to receiving the
// response headers, with which, on loopback, the small bodies arrive.
// A traced run also times every round trip. The client sends one
// request at a time, so no locking is needed.
type clientTransport struct {
	next   http.RoundTripper
	m      *meter
	traced bool
	seq    []int64 // traced: round-trip time of every request in the order sent
	ns     int64   // traced: their sum
}

func (t *clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	d := time.Since(start)
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/answers") {
		t.m.round(d)
	}
	if t.traced {
		t.seq = append(t.seq, int64(d))
		t.ns += int64(d)
	}
	return resp, err
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach
// the wrapped transport.
func (t *clientTransport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// countingConn counts the bytes a client connection writes and reads:
// the request and response bytes on the wire, headers included.
type countingConn struct {
	net.Conn
	wrote, read *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// countingDialer dials loopback connections whose bytes are counted.
type countingDialer struct {
	wrote, read atomic.Int64
	d           net.Dialer
}

func (cd *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := cd.d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, wrote: &cd.wrote, read: &cd.read}, nil
}
