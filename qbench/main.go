// Command qbench is the qhorn benchmark: four closed-loop workloads,
// each a fixed plan of seeded sessions run in whole passes, with every
// session's output checked against a reference evaluator written apart
// from the program. See README.md.
//
//	qbench -workload engine -seed 1 -seconds 10 -trace 0
//	qbench -repeat 10 -workload engine -seconds 10
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// bench is one workload after set-up: a plan of sessions it can run
// any number of times.
type bench interface {
	// begin is called right before the timed passes.
	begin()
	// pass runs every session of the plan once. Pass 0 fixes the
	// outputs the checks judge; every later pass must repeat them.
	pass(p int, m *meter)
	// between runs after every pass, outside the timed passes, and
	// returns the workload to the state the first pass began in.
	between() error
	// check judges the outputs with the reference evaluator.
	check() error
	close()
}

type workload struct {
	name  string
	setup func(seed int64, traced *layers) (bench, error)
}

var workloads = []workload{
	{"engine", setupEngine},
	{"serve_fused", setupServeFused},
	{"serve_single", setupServeSingle},
	{"brute_n4", setupBrute},
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "engine", "workload: engine, serve_fused, serve_single or brute_n4")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed section")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	repeat := flag.Int("repeat", 0, "run the workload this many times, seeds seed, seed+1, …, and print each metric's spread")
	flag.Parse()
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *trace, *repeat)
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := checkPaperExamples(); err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
		return 1
	}
	// Every workload runs on one P. Each is one closed loop: the load
	// thread and what it calls (the server, the rp learner's lattice
	// streams) take turns, so a second P adds mostly wake-ups across
	// vCPUs. On the shared 2-vCPU reference host those carry most of
	// the hypervisor's steal: at the default GOMAXPROCS the
	// seed-to-seed spread of wall time per pass was 0.35-0.41 on
	// serve_fused and engine, against 0.15-0.16 on one P.
	runtime.GOMAXPROCS(1)
	header(*name, *seed, *seconds, *trace == 1)
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, dur)
	} else {
		var s *section
		if s, err = measure(w, *seed, dur, nil, setupReps); err == nil {
			s.b.close()
			res = s.result(s.endToEnd)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
		return 1
	}
	printResult(res)
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// section is the outcome of one workload's timed passes.
type section struct {
	b        bench
	m        *meter
	correct  bool
	endToEnd map[string]metric
}

func (s *section) result(metrics map[string]metric) result {
	a, f := s.m.totals()
	return result{Correct: s.correct, Attempted: a, Failed: f, Metrics: metrics}
}

// measure sets the workload up reps times (setup_s is the median),
// then runs whole passes of its plan until dur has elapsed, and checks
// the outputs. The caller closes the section's bench.
func measure(w workload, seed int64, dur time.Duration, traced *layers, reps int) (*section, error) {
	var b bench
	var setups []float64
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = w.setup(seed, traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m := newMeter()
	b.begin()
	runtime.GC()
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < dur; p++ {
		m.startPass()
		alloc, cpu, sessions := totalAlloc(), cpuTime(), m.sessions
		passStart := time.Now()
		b.pass(p, m)
		wall := time.Since(passStart)
		m.endPass(passStat{wall: wall, cpu: cpuTime() - cpu, alloc: totalAlloc() - alloc, sessions: m.sessions - sessions})
		if err := b.between(); err != nil {
			b.close()
			return nil, err
		}
	}
	s := &section{b: b, m: m, correct: true}
	if err := b.check(); err != nil {
		fmt.Fprintf(os.Stderr, "qbench: check failed: %v\n", err)
		s.correct = false
	}
	printCounts(w.name, m)
	s.endToEnd = endToEnd(m, median(setups))
	return s, nil
}

// clockPairNs is the median cost of one time.Now and time.Since pair,
// the overhead each timed call of a traced run carries.
func clockPairNs() float64 {
	var xs []float64
	for r := 0; r < 9; r++ {
		start := time.Now()
		for i := 0; i < 10000; i++ {
			_ = time.Since(time.Now())
		}
		xs = append(xs, float64(time.Since(start))/10000)
	}
	return median(xs)
}

// layers collects the per-layer metrics of a traced run.
type layers struct{ m map[string]metric }

func (l *layers) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }

// tracedRun measures every layer, each on the workload that exercises
// it, so a traced run of any workload prints every per-layer metric.
// The named workload runs first and gets half the time; the others
// share the rest. The serving layers (serve, http, client) come from
// the named workload when it is a serve workload, else from
// serve_fused. End-to-end figures of the traced sections are printed
// as comments: minus an untraced run's, they are the tracing overhead.
func tracedRun(named workload, seed int64, dur time.Duration) (result, error) {
	l := &layers{m: map[string]metric{}}
	fmt.Printf("# clock read pair (time.Now, time.Since): %.1f ns\n", clockPairNs())
	order := []workload{named}
	for _, w := range workloads {
		if w.name != named.name {
			order = append(order, w)
		}
	}
	out := result{Correct: true, Metrics: l.m}
	for i, w := range order {
		d := dur / 2
		if i > 0 {
			d = dur / time.Duration(2*(len(order)-1))
		}
		s, err := measure(w, seed, d, l, 1)
		if err != nil {
			return result{}, err
		}
		printMetrics("traced "+w.name, s.endToEnd)
		switch b := s.b.(type) {
		case *engineBench:
			b.layerMetrics(l, s.m.sessions)
		case *serveBench:
			if w.name == "serve_fused" {
				b.tierMetrics(l)
			}
			if w.name == named.name || w.name == "serve_fused" && !strings.HasPrefix(named.name, "serve") {
				b.wireMetrics(l)
			}
		case *bruteBench:
			b.layerMetrics(l, s.endToEnd)
		}
		s.b.close()
		if w.name == named.name {
			a, f := s.m.totals()
			out.Attempted, out.Failed = a, f
		}
		out.Correct = out.Correct && s.correct
	}
	return out, nil
}
