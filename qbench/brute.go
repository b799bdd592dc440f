package main

import (
	"fmt"
	"math/rand"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/brute"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// The brute_n4 workload: the exhaustive n=4 class (every query of the
// class against every object) as the difffuzz brute judge
// cross-validates with it. The answer matrix is built once, in set-up;
// the timed sessions are Matrix.LearnGreedy runs against seeded hidden
// queries drawn from the class.

const (
	brutePlan = 48 // hidden queries per pass
	bruteWarm = 2  // warm-up sessions in set-up
)

type bruteBench struct {
	m       *brute.Matrix
	buildNs int64
	hidden  []int // candidate indices, one per session
	first   []bruteOut
	diffs   int
	clock   roundClock
}

type bruteOut struct {
	learned   int // index of the winner among the candidates
	questions int
}

func setupBrute(seed int64, _ *layers) (bench, error) {
	u := boolean.MustUniverse(4)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	start := time.Now()
	m, err := brute.NewMatrixOpts(candidates, pool, brute.MatrixOptions{})
	if err != nil {
		return nil, fmt.Errorf("brute: building the n=4 matrix: %w", err)
	}
	b := &bruteBench{m: m, buildNs: int64(time.Since(start)), first: make([]bruteOut, brutePlan)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < brutePlan; i++ {
		b.hidden = append(b.hidden, rng.Intn(len(candidates)))
	}
	for _, h := range b.hidden[:bruteWarm] {
		if _, err := b.session(h, newMeter()); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func (b *bruteBench) pass(p int, m *meter) {
	for i, h := range b.hidden {
		out, err := b.session(h, m)
		m.attempt("learn-greedy", err)
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

// session is one LearnGreedy run to its winner. A round is the
// learner's compute between two questions.
func (b *bruteBench) session(h int, m *meter) (bruteOut, error) {
	cands := b.m.Candidates()
	start := time.Now()
	b.clock.start(oracle.Target(cands[h]), m)
	res, err := b.m.LearnGreedy(&b.clock)
	b.clock.finish()
	if err != nil {
		return bruteOut{}, err
	}
	m.session(time.Since(start), res.Questions, res.Questions)
	for i := range cands {
		if cands[i].Equal(res.Learned) {
			return bruteOut{learned: i, questions: res.Questions}, nil
		}
	}
	return bruteOut{}, fmt.Errorf("brute: the winner %s is not a candidate", res.Learned)
}

// check compares every winner with its hidden query on all 65536
// objects under the reference evaluator.
func (b *bruteBench) check() error {
	if b.diffs > 0 {
		return fmt.Errorf("brute_n4: %d session outputs changed between passes", b.diffs)
	}
	cands := b.m.Candidates()
	judged := map[[2]int]bool{}
	for i, h := range b.hidden {
		pair := [2]int{h, b.first[i].learned}
		if judged[pair] {
			continue
		}
		judged[pair] = true
		if err := agree(cands[h], cands[pair[1]], nil); err != nil {
			return fmt.Errorf("brute_n4: %w", err)
		}
	}
	return nil
}

func (b *bruteBench) begin() {}

func (b *bruteBench) between() error { return nil }

func (b *bruteBench) close() { _ = b.m.Close() } // in-RAM matrices hold no file

// layerMetrics reports the brute, bitvec and slab-kernel figures: the
// matrix build and size, one LearnGreedy, and one Slab.EvalAll over the
// n=4 pool.
func (b *bruteBench) layerMetrics(l *layers, endToEnd map[string]metric) {
	l.set("brute.build_ms", "ms", float64(b.buildNs)/1e6)
	l.set("brute.storage_mb", "MB", float64(b.m.StorageBytes())/(1<<20))
	l.set("brute.learn_us_p50", "us", endToEnd["session_ms_p50"].Value*1e3)
	cands, pool := b.m.Candidates(), b.m.Pool()
	var ns, calls int64
	var sink uint64
	for lo := 0; lo < len(cands); lo += query.SlabWidth {
		hi := lo + query.SlabWidth
		if hi > len(cands) {
			hi = len(cands)
		}
		slab := query.CompileSlab(cands[lo:hi])
		start := time.Now()
		for _, obj := range pool {
			sink ^= slab.EvalAll(obj)
		}
		ns += int64(time.Since(start))
		calls += int64(len(pool))
	}
	l.set("query.slab_eval_ns", "ns", float64(ns)/float64(calls))
	slabSink = sink
}

// slabSink keeps the slab evaluations from being optimised away.
var slabSink uint64
