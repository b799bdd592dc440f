package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/difffuzz"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/session"
	"qhorn/internal/verify"
)

// The engine workload: in-process learns and verifications over
// interaction histories (session.New) around a compiled simulated
// user, with the options qhornd passes its engine minus
// instrumentation. No wire.

const (
	enginePlan    = 960 // sessions per pass, plus missedMutant
	engineQ1MinN  = 8   // qhorn-1 universes: 8..16 variables
	engineQ1MaxN  = 16
	engineRPMinN  = 6 // role-preserving universes: 6..10 variables
	engineRPMaxN  = 10
	obsReplays    = 3  // bare/instrumented alternations for obs overhead
	obsReplayPlan = 64 // sessions per alternation
)

// Session kinds of the engine plan, in slot order: two qhorn-1
// learns, two role-preserving learns, one verification of the true
// query and one of a mutant of it.
var engineCycle = []string{"learn-qhorn1", "learn-rp", "learn-qhorn1", "learn-rp", "verify-true", "verify-mutant"}

// mutantSeed draws the mutant verifications. They do not follow
// --seed: the verifier accepts about one mutant in 600 that differs
// from its hidden query (see missedMutant), so with seeded mutants
// the share of failed sessions would change from seed to seed. With
// this seed the plan holds the same mutants, missed or not, in every
// run.
const mutantSeed = 0

// missedMutant is a hidden role-preserving query and a role-preserving
// mutant of it (the universal ∀x2x5x8 → x4 dropped, its guarantee kept
// as a conjunction). The two differ, e.g. on an object holding the
// tuple x2x5x8 without x4, yet the verification set of the mutant
// accepts the hidden query's answers. Every pass verifies it once.
var missedMutant = [2]string{"∀x3x5 → x4 ∀x2x5x8 → x4 ∀x6x8 → x4 ∃x7", "∀x3x5 → x4 ∀x6x8 → x4 ∃x7 ∃x2x4x5x8"}

var errMissedMutant = errors.New("verify: a mutant that differs from the hidden query verified correct")

type engineSlot struct {
	kind   string
	verify bool
	alg    run.Algorithm
	hidden query.Query
	given  query.Query // verify sessions: the query under verification
	mutant bool
}

// engineOut is what one session produced, kept from the first pass
// for the checks and compared on every later pass.
type engineOut struct {
	learned string
	q       query.Query
	asked   int // questions the learner asked
	verdict *verify.Result
}

type engineBench struct {
	slots  []engineSlot
	first  []engineOut
	diffs  int // later-pass outputs that differ from the first pass
	clock  roundClock
	traced *layers
	tr     engineTrace
}

// engineTrace accumulates the engine's per-layer figures.
type engineTrace struct {
	learnNs, topNs, histNs, userNs int64
	topQs, histQs, userQs          int64
	learns, batches                int64
	buildNs, runNs                 []int64
	q1Rounds, rpRounds             []int64
}

func setupEngine(seed int64, traced *layers) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	mrng := rand.New(rand.NewSource(mutantSeed))
	b := &engineBench{traced: traced, first: make([]engineOut, enginePlan+1)}
	drawn := map[string]int{} // slots of each kind so far
	for i := 0; i < enginePlan; i++ {
		kind := engineCycle[i%len(engineCycle)]
		k := drawn[kind]
		drawn[kind]++
		var s engineSlot
		switch kind {
		case "learn-qhorn1":
			n := stratum(engineQ1MinN, engineQ1MaxN, k)
			s = engineSlot{kind: kind, alg: run.Qhorn1, hidden: difffuzz.GenCase(rng, difffuzz.ClassQhorn1, n, n).Hidden}
		case "learn-rp":
			n := stratum(engineRPMinN, engineRPMaxN, k)
			s = engineSlot{kind: kind, alg: run.RolePreserving, hidden: difffuzz.GenCase(rng, difffuzz.ClassRP, n, n).Hidden}
		case "verify-true":
			n := stratum(engineRPMinN, engineRPMaxN, k)
			hidden := difffuzz.GenCase(rng, difffuzz.ClassRP, n, n).Hidden
			s = engineSlot{kind: kind, verify: true, hidden: hidden, given: hidden}
		default:
			n := stratum(engineRPMinN, engineRPMaxN, k)
			var err error
			if s, err = mutantSlot(mrng, n); err != nil {
				return nil, err
			}
		}
		b.slots = append(b.slots, s)
	}
	u := boolean.MustUniverse(8)
	hidden, mutant := query.MustParse(u, missedMutant[0]), query.MustParse(u, missedMutant[1])
	if _, separated := disagreement(hidden, mutant, rand.New(rand.NewSource(1))); !separated {
		return nil, fmt.Errorf("engine: the reference evaluator does not separate %s from %s", mutant, hidden)
	}
	b.slots = append(b.slots, engineSlot{kind: "verify-mutant", verify: true, mutant: true, hidden: hidden, given: mutant})
	// Warm-up: the whole plan once, untimed.
	for i := range b.slots {
		if _, err := b.session(&b.slots[i], newMeter()); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// mutantSlot draws a role-preserving hidden query on n variables and
// a difffuzz mutant of it that the reference evaluator separates from
// it; the mutant is the query under verification.
func mutantSlot(rng *rand.Rand, n int) (engineSlot, error) {
	for try := 0; try < 100; try++ {
		hidden := difffuzz.GenCase(rng, difffuzz.ClassRP, n, n).Hidden
		mutant, _, ok := difffuzz.Mutant(rng, hidden)
		if !ok {
			continue
		}
		if _, separated := disagreement(hidden, mutant, rng); separated {
			return engineSlot{kind: "verify-mutant", verify: true, mutant: true, hidden: hidden, given: mutant}, nil
		}
	}
	return engineSlot{}, fmt.Errorf("engine: no separable mutant on %d variables in 100 draws", n)
}

// stratum is the universe size of the k-th slot of a kind: sizes cycle
// through min..max, so every seed draws the same mix of sizes and only
// the query shapes vary.
func stratum(min, max, k int) int { return min + k%(max-min+1) }

func (b *engineBench) pass(p int, m *meter) {
	for i := range b.slots {
		s := &b.slots[i]
		out, err := b.session(s, m)
		if err == nil && s.mutant && out.verdict.Correct {
			err = errMissedMutant
		}
		m.attempt(s.kind, err)
		if err != nil && !errors.Is(err, errMissedMutant) {
			continue
		}
		if p == 0 {
			b.first[i] = out
		} else if !sameEngineOut(out, b.first[i]) {
			b.diffs++
		}
	}
}

func sameEngineOut(a, b engineOut) bool {
	if a.learned != b.learned || a.asked != b.asked || (a.verdict == nil) != (b.verdict == nil) {
		return false
	}
	return a.verdict == nil || a.verdict.Correct == b.verdict.Correct && len(a.verdict.Disagreements) == len(b.verdict.Disagreements)
}

// session runs one learn or verification. Untraced, it passes exactly
// the options qhornd's session goroutine passes, minus
// instrumentation. Traced, it assembles the same stack itself so
// timers sit between the layers; the questions asked are identical.
func (b *engineBench) session(s *engineSlot, m *meter) (out engineOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s session panicked: %v", s.kind, r)
		}
	}()
	user := oracle.Target(s.hidden)
	var userT *timedOracle
	if b.traced != nil {
		userT = &timedOracle{inner: user}
		user = userT
	}
	start := time.Now()
	b.clock.start(user, m)
	hist := session.New(&b.clock)
	var top, histT *timedOracle
	asker := oracle.Oracle(hist)
	opts := []run.Option{run.WithBatch(), run.WithCounter()}
	if b.traced != nil {
		histT = &timedOracle{inner: hist}
		top = &timedOracle{inner: run.New(opts...).Assemble(histT).Oracle}
		asker, opts = top, []run.Option{run.WithBatch()}
	}
	var learnStart time.Time
	firstRound := len(m.roundNs)
	if s.verify {
		vs, err := verify.Build(s.given)
		if err != nil {
			return out, err
		}
		runStart := time.Now()
		res := vs.RunWith(asker, opts...)
		if b.traced != nil {
			b.tr.buildNs = append(b.tr.buildNs, int64(runStart.Sub(start)))
			b.tr.runNs = append(b.tr.runNs, int64(time.Since(runStart)))
		}
		out = engineOut{verdict: &res, asked: res.QuestionsAsked}
	} else {
		learnStart = time.Now()
		q, st := learn.Run(s.hidden.U, asker, append(opts, run.WithAlgorithm(s.alg))...)
		out = engineOut{learned: q.String(), q: q, asked: st.Total()}
	}
	b.clock.finish()
	m.session(time.Since(start), hist.LiveQuestions, b.clock.batches)
	if b.traced != nil {
		if !learnStart.IsZero() {
			b.tr.learnNs += int64(time.Since(learnStart)) - top.ns
			b.tr.learns++
		}
		b.tr.topNs += top.ns
		b.tr.topQs += top.questions
		b.tr.histNs += histT.ns
		b.tr.histQs += histT.questions
		b.tr.userNs += userT.ns
		b.tr.userQs += userT.questions
		b.tr.batches += int64(b.clock.batches)
		switch {
		case s.verify:
		case s.alg == run.Qhorn1:
			b.tr.q1Rounds = append(b.tr.q1Rounds, m.roundNs[firstRound:]...)
		default:
			b.tr.rpRounds = append(b.tr.rpRounds, m.roundNs[firstRound:]...)
		}
	}
	return out, nil
}

// check judges the first pass's outputs with the reference evaluator.
func (b *engineBench) check() error {
	if b.diffs > 0 {
		return fmt.Errorf("engine: %d session outputs changed between passes", b.diffs)
	}
	rng := rand.New(rand.NewSource(1))
	for i, s := range b.slots {
		out := b.first[i]
		n := s.hidden.N()
		switch {
		case out.verdict == nil:
			if err := agree(s.hidden, out.q, rng); err != nil {
				return fmt.Errorf("engine %s: %w", s.kind, err)
			}
			if bound := n + 2*n*int(math.Ceil(math.Log2(float64(n)))); s.alg == run.Qhorn1 && out.asked > bound {
				return fmt.Errorf("engine: qhorn-1 learn of %s asked %d questions, over n + 2n⌈lg n⌉ = %d", s.hidden, out.asked, bound)
			}
		case !s.mutant:
			if !out.verdict.Correct {
				return fmt.Errorf("engine: true query %s verified incorrect", s.hidden)
			}
		default:
			// A mutant verified correct is a failed session, counted in
			// pass; what the verifier does report must be real.
			for _, d := range out.verdict.Disagreements {
				obj := d.Question.Set.Tuples()
				if refEval(s.hidden, obj) != d.Got || refEval(s.given, obj) == d.Got {
					return fmt.Errorf("engine: verification of %s against %s reported a false disagreement", s.given, s.hidden)
				}
			}
		}
	}
	return nil
}

func (b *engineBench) begin() { b.tr = engineTrace{} }

func (b *engineBench) between() error { return nil }

func (b *engineBench) close() {}

// layerMetrics reports the engine's per-layer figures. The obs
// overhead replays part of the plan with and without the
// instrumentation qhornd passes, alternating, after the timed section.
func (b *engineBench) layerMetrics(l *layers, sessions int) {
	t := b.tr
	l.set("query.eval_ns", "ns", float64(t.userNs)/float64(t.userQs))
	l.set("query.evals_per_session", "count", float64(t.userQs)/float64(sessions))
	l.set("learn.self_us_per_session", "us", float64(t.learnNs)/1e3/float64(t.learns))
	l.set("learn.qhorn1.round_us_p50", "us", percentile(t.q1Rounds, 0.5)/1e3)
	l.set("learn.rp.round_us_p50", "us", percentile(t.rpRounds, 0.5)/1e3)
	l.set("learn.questions_per_round", "count", float64(t.userQs)/float64(t.batches))
	l.set("session.self_ns_per_question", "ns", float64(t.histNs-t.userNs)/float64(t.histQs))
	l.set("oracle.stack_ns_per_question", "ns", float64(t.topNs-t.histNs)/float64(t.topQs))
	l.set("verify.build_us", "us", percentile(t.buildNs, 0.5)/1e3)
	l.set("verify.run_us", "us", percentile(t.runNs, 0.5)/1e3)
	l.set("obs.overhead_us_per_session", "us", b.obsOverhead())
}

// obsOverhead is the per-session cost of the spans and metrics qhornd
// hands every engine run: the learn sessions of the plan run bare and
// instrumented, alternating, and the median difference is reported.
func (b *engineBench) obsOverhead() float64 {
	o := obs.NewServer(nil, nil, obs.NewFlightRecorder(0))
	ins := run.WithInstrumentation(run.Instrumentation{Spans: o.SpanTracer(), Metrics: o.Registry()})
	var learns []*engineSlot
	for i := range b.slots {
		if !b.slots[i].verify && len(learns) < obsReplayPlan {
			learns = append(learns, &b.slots[i])
		}
	}
	replay := func(extra ...run.Option) time.Duration {
		start := time.Now()
		for _, s := range learns {
			hist := session.New(oracle.Target(s.hidden))
			learn.Run(s.hidden.U, hist, append([]run.Option{run.WithAlgorithm(s.alg), run.WithBatch(), run.WithCounter()}, extra...)...)
		}
		return time.Since(start)
	}
	var diffs []float64
	for r := 0; r < obsReplays; r++ {
		bare := replay()
		instrumented := replay(ins)
		diffs = append(diffs, float64(instrumented-bare)/1e3/float64(len(learns)))
	}
	return median(diffs)
}
