package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"qhorn/internal/difffuzz"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/serve"
	"qhorn/internal/session"
)

// The serve workloads: an in-process serve.Server with its default
// Config (metrics, flight recorder and shared memo tier on, as qhornd
// runs it) behind a loopback listener, driven by one persistent
// serve.Client connection through serve.Client.Drive in a closed loop
// with zero think time. Every pass starts on a fresh server, so the
// shared memo tier holds only what the pass itself put there.

// The universes and the target pools follow the repository's load
// experiments: E25 (qhornexp -exp serve) draws pools of 16 targets on
// 4..6 variables, and E28's memo table (qhornexp -exp load) runs 75%
// of its learns warm. The verify and amend shares are assumptions: no
// experiment mixes them with learns, so each gets one session in ten.
const (
	serveMinN   = 4  // E25's MinVars
	serveMaxN   = 6  // E25's MaxVars
	servePool   = 16 // E25's Targets
	fusedPools  = 6  // pools per class on serve_fused: 96 targets of each class
	singlePools = 24 // pools on serve_single: 384 targets
	longPoll    = 10 * time.Second
)

// The sessions of one target on serve_fused, in order. A qhorn-1
// target is learned cold by qhorn-1, then three times warm under one
// user identity: by qhorn-1, by the role-preserving learner (qhorn-1
// is a subclass of role-preserving qhorn) and by qhorn-1 again. The
// role-preserving learner asks its own questions, so the memo tier
// answers only the part of them qhorn-1 already settled. A
// role-preserving target is learned cold and three times warm, then
// verified and amended.
var (
	fusedQhorn1Kinds = []string{"cold-qhorn1", "warm-qhorn1", "warm-rp", "warm-qhorn1"}
	fusedRPKinds     = []string{"cold-rp", "warm-rp", "warm-rp", "warm-rp", "verify", "amend-rp"}
)

type serveSlot struct {
	kind   string
	alg    run.Algorithm
	hidden query.Query
	user   string // warm sessions: the user identity of their target
	want   string // direct learn.Run over a session history
	live   int    // its live question count
}

type serveOut struct {
	state    string
	learned  string
	wire     int // questions the client answered
	correct  bool
	revision serve.RevisionInfo // zero unless the amend took the revision path
}

type serveBench struct {
	name   string
	wire   serve.WireMode
	slots  []serveSlot
	first  []serveOut
	diffs  int
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *serve.Client
	ct     *clientTransport
	dial   *countingDialer
	traced *layers

	// Traced only.
	routes   *routeTimer
	callNs   int64 // time inside serve.Client calls
	answerNs int64 // time inside the answerer, within those calls
	amendQs  []float64
	memo     [2]int64 // shared-tier hits and misses of the servers shut down since begin
}

func setupServeFused(seed int64, traced *layers) (bench, error) {
	return setupServe("serve_fused", serve.WireFused, seed, traced)
}

func setupServeSingle(seed int64, traced *layers) (bench, error) {
	return setupServe("serve_single", serve.WireSingle, seed, traced)
}

func setupServe(name string, wire serve.WireMode, seed int64, traced *layers) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &serveBench{name: name, wire: wire, traced: traced, dial: &countingDialer{}, ct: &clientTransport{traced: traced != nil}}
	if wire == serve.WireSingle {
		for t := 0; t < singlePools*servePool; t++ {
			n := stratum(serveMinN, serveMaxN, t)
			s := directLearn(run.Qhorn1, difffuzz.GenCase(rng, difffuzz.ClassQhorn1, n, n).Hidden)
			s.kind = "cold-qhorn1"
			b.slots = append(b.slots, s)
		}
	} else {
		for t := 0; t < fusedPools*servePool; t++ {
			n := stratum(serveMinN, serveMaxN, t)
			for _, c := range []struct {
				class difffuzz.Class
				kinds []string
			}{{difffuzz.ClassQhorn1, fusedQhorn1Kinds}, {difffuzz.ClassRP, fusedRPKinds}} {
				hidden := difffuzz.GenCase(rng, c.class, n, n).Hidden
				user := fmt.Sprintf("warm-%s-%d", c.class, t)
				refs := map[run.Algorithm]serveSlot{}
				for _, kind := range c.kinds {
					alg := run.RolePreserving
					if strings.HasSuffix(kind, "qhorn1") {
						alg = run.Qhorn1
					}
					ref, ok := refs[alg]
					if !ok {
						ref = directLearn(alg, hidden)
						refs[alg] = ref
					}
					ref.kind = kind
					if strings.HasPrefix(kind, "warm") {
						ref.user = user
					}
					b.slots = append(b.slots, ref)
				}
			}
		}
	}
	b.first = make([]serveOut, len(b.slots))
	if traced != nil {
		b.routes = newRouteTimer()
	}
	if err := b.start(); err != nil {
		return nil, err
	}
	// Warm-up: the whole plan once, untimed, then a fresh server.
	for i := range b.slots {
		if _, err := b.session(&b.slots[i], newMeter()); err != nil {
			b.close()
			return nil, err
		}
	}
	if err := b.between(); err != nil {
		return nil, err
	}
	return b, nil
}

// directLearn makes a session of the plan with its direct reference:
// the same engine run qhornd makes, over a session history, with no
// wire. The caller sets its kind and user.
func directLearn(alg run.Algorithm, hidden query.Query) serveSlot {
	hist := session.New(oracle.Target(hidden))
	learned, _ := learn.Run(hidden.U, hist, run.WithAlgorithm(alg), run.WithBatch())
	return serveSlot{alg: alg, hidden: hidden, want: learned.String(), live: hist.LiveQuestions}
}

// start serves a new server's handler on a loopback listener with the
// hardening timeouts serve.Server.Start uses, and connects a client.
func (b *serveBench) start() error {
	b.srv = serve.New(serve.Config{})
	handler := b.srv.Handler()
	if b.routes != nil {
		b.routes.next = handler
		handler = b.routes
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		return fmt.Errorf("serve: listen: %w", err)
	}
	b.hs = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: serve.DefaultReadHeaderTimeout,
		WriteTimeout:      serve.DefaultWriteTimeout,
		IdleTimeout:       serve.DefaultIdleTimeout,
		MaxHeaderBytes:    serve.DefaultMaxHeaderBytes,
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.ct.next = &http.Transport{
		DialContext:         b.dial.DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	b.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: b.ct}}
	return nil
}

func (b *serveBench) close() {
	b.client.HTTP.CloseIdleConnections()
	_ = b.hs.Close() // the listener's error is reported by Serve below
	<-b.served
	_ = b.srv.Close() // aborts nothing: every session was deleted
}

// between shuts the server down and starts a fresh one, so the next
// pass finds an empty memo tier, as the first one did.
func (b *serveBench) between() error {
	if b.traced != nil {
		memo := b.memoCounters()
		b.memo[0] += memo[0]
		b.memo[1] += memo[1]
	}
	b.close()
	return b.start()
}

func (b *serveBench) pass(p int, m *meter) {
	for i := range b.slots {
		s := &b.slots[i]
		out, err := b.session(s, m)
		m.attempt(s.kind, err)
		if err != nil {
			continue
		}
		if p == 0 {
			b.first[i] = out
		} else if out != b.first[i] {
			b.diffs++
		}
	}
}

// call times one serve.Client call in a traced run.
func (b *serveBench) call(f func() error) error {
	if b.traced == nil {
		return f()
	}
	start := time.Now()
	err := f()
	b.callNs += int64(time.Since(start))
	return err
}

// session creates a session, drives it to done (for amend sessions:
// lies on the first question, amends that answer, drives again) and
// deletes it. Each answer exchange is a round, timed by the client's
// transport.
func (b *serveBench) session(s *serveSlot, m *meter) (out serveOut, err error) {
	c := b.client
	b.ct.m = m
	rt0 := c.RoundTrips()
	start := time.Now()
	req := serve.CreateRequest{Variables: s.hidden.N(), Algorithm: s.alg.String(), User: s.user}
	if s.kind == "verify" {
		req.Mode, req.Given = serve.ModeVerify, s.hidden.String()
	}
	var info serve.SessionInfo
	if err := b.call(func() (err error) { info, err = c.Create(req); return err }); err != nil {
		return out, err
	}
	honest := serve.AnswererFor(s.hidden.U, oracle.Target(s.hidden))
	wire, lied := 0, ""
	answer := func(q serve.WireQuestion) (bool, error) {
		var start time.Time
		if b.traced != nil {
			start = time.Now()
		}
		a, err := honest(q)
		wire++
		if s.kind == "amend-rp" && lied == "" {
			lied, a = q.Key, !a
		}
		if b.traced != nil {
			b.answerNs += int64(time.Since(start))
		}
		return a, err
	}
	opt := serve.DriveOptions{Wire: b.wire, Poll: longPoll}
	var final serve.SessionInfo
	drive := func() (err error) { final, err = c.Drive(info.ID, answer, opt); return err }
	err = b.call(drive)
	if err == nil && lied != "" {
		if err = b.call(func() error { _, err := c.Amend(info.ID, serve.AmendRequest{Key: lied}); return err }); err == nil {
			err = b.call(drive)
			if final.Revision != nil && b.traced != nil {
				b.amendQs = append(b.amendQs, float64(final.Revision.VerificationQuestions+final.Revision.RepairQuestions))
			}
		}
	}
	if derr := b.call(func() error { return c.Delete(info.ID) }); err == nil {
		err = derr
	}
	if err != nil {
		return out, err
	}
	if final.State != serve.StateDone {
		return out, fmt.Errorf("serve: session ended %s: %s", final.State, final.Error)
	}
	m.session(time.Since(start), wire, int(c.RoundTrips()-rt0))
	out = serveOut{state: final.State, learned: final.Learned, wire: wire}
	if final.Verify != nil {
		out.correct = final.Verify.Correct
	}
	if final.Revision != nil {
		out.revision = *final.Revision
	}
	return out, nil
}

// check judges the first pass's outputs: identity with the direct
// learn.Run for cold learns, no more wire questions than cold for warm
// learns, the true query verified, and every learned query agreeing
// with the hidden one under the reference evaluator.
func (b *serveBench) check() error {
	if b.diffs > 0 {
		return fmt.Errorf("%s: %d session outputs changed between passes", b.name, b.diffs)
	}
	rng := rand.New(rand.NewSource(1))
	for i, s := range b.slots {
		out := b.first[i]
		switch s.kind {
		case "verify":
			if !out.correct {
				return fmt.Errorf("%s: true query %s verified incorrect", b.name, s.hidden)
			}
			continue
		case "cold-qhorn1", "cold-rp":
			if out.learned != s.want || out.wire != s.live {
				return fmt.Errorf("%s: cold learn of %s gave %s in %d wire questions, direct learn.Run %s in %d",
					b.name, s.hidden, out.learned, out.wire, s.want, s.live)
			}
		case "warm-qhorn1", "warm-rp":
			// s.live is the direct cold learn of the same target by
			// the same algorithm.
			if out.learned != s.want || out.wire > s.live {
				return fmt.Errorf("%s: warm learn of %s gave %s in %d wire questions, cold %s in %d",
					b.name, s.hidden, out.learned, out.wire, s.want, s.live)
			}
		}
		learned, err := query.Parse(s.hidden.U, out.learned)
		if err != nil {
			return fmt.Errorf("%s: learned query %q: %w", b.name, out.learned, err)
		}
		if err := agree(s.hidden, learned, rng); err != nil {
			return fmt.Errorf("%s %s: %w", b.name, s.kind, err)
		}
	}
	return nil
}

// begin clears what set-up and warm-up left in the traced accumulators.
func (b *serveBench) begin() {
	if b.traced == nil {
		return
	}
	b.routes.mu.Lock()
	b.routes.ns, b.routes.seq = map[string][]int64{}, nil
	b.routes.mu.Unlock()
	b.ct.seq, b.ct.ns = nil, 0
	b.dial.wrote.Store(0)
	b.dial.read.Store(0)
	b.callNs, b.answerNs, b.amendQs, b.memo = 0, 0, nil, [2]int64{}
}

// memoCounters reads the current server's shared-tier hit and miss
// counters.
func (b *serveBench) memoCounters() [2]int64 {
	reg := b.srv.Registry()
	return [2]int64{reg.CounterValue(obs.MetricMemoTierHits), reg.CounterValue(obs.MetricMemoTierMisses)}
}

// tierMetrics reports the shared memo tier's hit ratio and the
// revision path's questions per amend.
func (b *serveBench) tierMetrics(l *layers) {
	hits, misses := b.memo[0], b.memo[1]
	l.set("oracle.memo_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	l.set("revise.questions_per_amend", "count", median(b.amendQs))
}

// wireMetrics reports the serving plane's per-layer figures from the
// handler wrapper, the transport wrapper and the client call timer.
func (b *serveBench) wireMetrics(l *layers) {
	us := func(route string, p float64) float64 { return percentile(b.routes.ns[route], p) / 1e3 }
	l.set("serve.answers_us_p50", "us", us("answers", 0.50))
	l.set("serve.answers_us_p99", "us", us("answers", 0.99))
	l.set("serve.questions_us_p50", "us", us("questions", 0.50))
	l.set("serve.create_us_p50", "us", us("create", 0.50))
	l.set("serve.delete_us_p50", "us", us("delete", 0.50))
	// With one client connection, requests are strictly sequential, so
	// the i-th handler time belongs to the i-th round trip.
	var wire []int64
	for i, rt := range b.ct.seq {
		if i < len(b.routes.seq) {
			wire = append(wire, rt-b.routes.seq[i])
		}
	}
	l.set("http.wire_us_p50", "us", percentile(wire, 0.5)/1e3)
	reqs := float64(len(b.ct.seq))
	l.set("http.req_bytes_per_round", "B", float64(b.dial.wrote.Load())/reqs)
	l.set("http.resp_bytes_per_round", "B", float64(b.dial.read.Load())/reqs)
	l.set("client.self_us_per_round", "us", float64(b.callNs-b.ct.ns-b.answerNs)/1e3/reqs)
}
