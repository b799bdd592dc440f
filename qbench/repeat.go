package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the repeat command
// reads: each metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string   `json:"name"`
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs the workload n times as separate processes, one seed
// each, and prints every metric's median, quartiles and spread (the
// distance between the quartiles over the median) beside its bound
// from BENCHMARK.json. It is how the bounds were set.
func repeatRuns(workload string, seed int64, seconds, trace, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
		return 1
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, m := range bf.EndToEnd {
			if m.Bound != nil {
				bounds[m.Name] = *m.Bound
			}
		}
	}
	header(workload, seed, seconds, trace == 1)
	values := map[string][]float64{}
	units := map[string]string{}
	ok := true
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to exit
		if err != nil {
			fmt.Fprintf(os.Stderr, "qbench: run with seed %d: %v\n", s, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			last = sc.Text()
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: run with seed %d printed no result: %v\n", s, err)
			return 1
		}
		ok = ok && r.Correct
		fmt.Printf("# seed %d correct %v attempted %d failed %d (%.6f failed)\n",
			s, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %-6s %12s %12s %12s %8s %6s %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "spread < bound/3")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := (q3 - q1) / q2
		bound, has := bounds[name]
		verdict, b := "-", "-"
		if has {
			b = strconv.FormatFloat(bound, 'f', 2, 64)
			verdict = strconv.FormatBool(spread < bound/3)
		}
		fmt.Printf("%-32s %-6s %12.5g %12.5g %12.5g %8.4f %6s %s\n", name, units[name], q1, q2, q3, spread, b, verdict)
	}
	if !ok {
		fmt.Println("# some runs reported incorrect output")
		return 1
	}
	return 0
}
