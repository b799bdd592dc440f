package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// meter collects the samples of one timed section. Every workload
// records into it from a single goroutine.
type meter struct {
	sessionNs []int64 // wall time per completed session of the current pass
	roundNs   []int64 // wall time per round of the current pass, as each workload defines it
	passes    []passStat

	sessions  int   // completed sessions
	questions int64 // questions reaching the user, summed over sessions
	rounds    int64 // rounds per the workload's definition, summed

	kinds map[string]*kindCount
	order []string // kind names in first-seen order
}

// passStat is one pass over the plan. The percentiles are the pass's
// own, so the samples need not outlive it.
type passStat struct {
	wall, cpu            time.Duration
	alloc                uint64 // bytes allocated during the pass
	sessions             int
	sessionP50, roundP50 float64 // ns
	sessionP99, roundP99 float64 // ns
}

// kindCount counts the sessions of one kind. These are counts of
// attempts, printed beside the metrics, never metrics themselves.
type kindCount struct{ attempted, failed int }

func newMeter() *meter { return &meter{kinds: map[string]*kindCount{}} }

// startPass empties the sample buffers, keeping their memory, so the
// benchmark's own bookkeeping grows neither with the length of a run
// nor during a pass after the first.
func (m *meter) startPass() {
	m.sessionNs, m.roundNs = m.sessionNs[:0], m.roundNs[:0]
}

// endPass completes ps with the percentiles of the pass's samples and
// records it.
func (m *meter) endPass(ps passStat) {
	ps.sessionP50, ps.sessionP99 = percentile(m.sessionNs, 0.50), percentile(m.sessionNs, 0.99)
	ps.roundP50, ps.roundP99 = percentile(m.roundNs, 0.50), percentile(m.roundNs, 0.99)
	m.passes = append(m.passes, ps)
}

// attempt records the outcome of one session of the given kind.
func (m *meter) attempt(kind string, err error) {
	k, ok := m.kinds[kind]
	if !ok {
		k = &kindCount{}
		m.kinds[kind] = k
		m.order = append(m.order, kind)
	}
	k.attempted++
	if err != nil {
		k.failed++
	}
}

// session records one completed session.
func (m *meter) session(d time.Duration, questions, rounds int) {
	m.sessionNs = append(m.sessionNs, int64(d))
	m.sessions++
	m.questions += int64(questions)
	m.rounds += int64(rounds)
}

func (m *meter) round(d time.Duration) { m.roundNs = append(m.roundNs, int64(d)) }

func (m *meter) totals() (attempted, failed int) {
	for _, k := range m.kinds {
		attempted += k.attempted
		failed += k.failed
	}
	return attempted, failed
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(data, n=4) with its
// default exclusive method, so spreads read the same as elsewhere.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// medianOf returns the median over passes ps of the figure f.
func medianOf(ps []passStat, f func(passStat) float64) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, f(p))
	}
	return median(xs)
}

// passRates returns each pass's sessions per second.
func passRates(ps []passStat) []float64 {
	var rates []float64
	for _, p := range ps {
		rates = append(rates, float64(p.sessions)/p.wall.Seconds())
	}
	return rates
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the report line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of a timed section. Wall
// time, CPU time and allocation are summed over the passes, leaving
// out the work between them; the percentiles are the medians of the
// passes' own.
func endToEnd(m *meter, setupS float64) map[string]metric {
	q := m.passes
	var wall, cpu time.Duration
	var alloc uint64
	sessions := 0
	for _, p := range q {
		wall += p.wall
		cpu += p.cpu
		alloc += p.alloc
		sessions += p.sessions
	}
	per := float64(sessions)
	return map[string]metric{
		"sessions_per_s":        {per / wall.Seconds(), "1/s"},
		"session_ms_p50":        {medianOf(q, func(p passStat) float64 { return p.sessionP50 }) / 1e6, "ms"},
		"round_us_p50":          {medianOf(q, func(p passStat) float64 { return p.roundP50 }) / 1e3, "us"},
		"cpu_ms_per_session":    {float64(cpu) / 1e6 / per, "ms"},
		"questions_per_session": {float64(m.questions) / per, "count"},
		"rounds_per_session":    {float64(m.rounds) / per, "count"},
		"alloc_kb_per_session":  {float64(alloc) / 1024 / per, "KB"},
		"peak_rss_mb":           {maxRSSMB(), "MB"},
		"setup_s":               {setupS, "s"},
	}
}

// printCounts prints the attempted and failed sessions per kind.
func printCounts(workload string, m *meter) {
	for _, k := range m.order {
		c := m.kinds[k]
		fmt.Printf("# sessions %s %s: attempted %d failed %d\n", workload, k, c.attempted, c.failed)
	}
	a, f := m.totals()
	fmt.Printf("# sessions %s total: attempted %d failed %d\n", workload, a, f)
	q1, q2, q3 := quartiles(passRates(m.passes))
	fmt.Printf("# samples %s: sessions %d passes %d (sessions/s per pass: q1 %.5g median %.5g q3 %.5g)\n",
		workload, m.sessions, len(m.passes), q1, q2, q3)
	// The tails are printed for the reader, not reported as metrics: on
	// a shared 2-vCPU host they measure the host's preemption more than
	// the program, and did not repeat from run to run.
	q := m.passes
	fmt.Printf("# tails %s (median over passes): session_ms_p99 %.5g round_us_p99 %.5g\n", workload,
		medianOf(q, func(p passStat) float64 { return p.sessionP99 })/1e6, medianOf(q, func(p passStat) float64 { return p.roundP99 })/1e3)
}

// printMetrics prints metrics as comment lines in name order.
func printMetrics(prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %s %s = %.6g %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}

func printResult(r result) {
	for n, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "qbench: metric %s has no samples\n", n)
			r.Correct = false
			r.Metrics[n] = metric{0, v.Unit}
		}
	}
	out, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	fmt.Println(string(out))
}

// header prints the provenance of a run.
func header(workload string, seed int64, seconds int, trace bool) {
	fmt.Printf("# qbench workload %s seed %d seconds %d trace %v\n", workload, seed, seconds, trace)
	fmt.Printf("# go %s %s/%s GOMAXPROCS %d nproc %d\n", runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("# cpu %s\n", cpuModel())
	fmt.Printf("# commit %s\n", gitCommit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checkout's HEAD without running git; a checkout
// that is not a git repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown (" + ref + ")"
}
