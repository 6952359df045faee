package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are Python's statistics.quantiles(values, n=4) (the default
// exclusive method), the rule the bounds are checked with.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	var q [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m, n := ld+1, 4
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q
}

// The steadiness check runs two sets of steadyRuns runs per workload, each
// run on its own seed (set 1 on 1000+i, set 2 on 2000+i), as the bounds
// of BENCHMARK.json are checked; and a third set of sameSeedRuns runs all
// on seed 1000, whose spread is the run-to-run noise on fixed inputs, so
// it can be told from the variation across seeds. The sets are
// interleaved run by run, so all three see the same phases of the host.
const (
	steadyRuns   = 10
	sameSeedRuns = 5
)

type steadySet struct {
	name string
	runs int
	seed func(i int) int64
}

var steadySets = []steadySet{
	{"seeds 1000+i", steadyRuns, func(i int) int64 { return 1000 + int64(i) }},
	{"seeds 2000+i", steadyRuns, func(i int) int64 { return 2000 + int64(i) }},
	{"seed 1000", sameSeedRuns, func(int) int64 { return 1000 }},
}

// steady runs the steadiness check on this commit with run_seconds of
// BENCHMARK.json and every workload it lists, and prints per workload and
// metric the medians, quartiles and spreads, and whether each stays within
// its bound: the spread (q3−q1)/median of every metric, setup_s included,
// within the bound in the two seeded sets, and the second set's median no
// worse than the first's by more than it. The same-seed set is reported,
// not judged.
func steady() error {
	spec0, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(spec0, &spec); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[set][workload][metric]; failed shares per set and workload
	values := make([]map[string]map[string][]float64, len(steadySets))
	shares := make([]map[string][]string, len(steadySets))
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		shares[s] = map[string][]string{}
	}
	for i := 0; i < steadyRuns; i++ {
		for s, set := range steadySets {
			// the shorter same-seed set is spread evenly over the check
			if i%(steadyRuns/set.runs) != 0 {
				continue
			}
			for _, w := range spec.Workloads {
				seed := set.seed(i)
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %v", w.Name, seed, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s seed %d: %v", w.Name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: result not correct", w.Name, seed)
				}
				if values[s][w.Name] == nil {
					values[s][w.Name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[s][w.Name][name] = append(values[s][w.Name][name], m.Value)
				}
				shares[s][w.Name] = append(shares[s][w.Name], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
				fmt.Fprintf(os.Stderr, "steady: %s run %d %s seed %d done\n", set.name, len(shares[s][w.Name]), w.Name, seed)
			}
		}
	}

	ok := true
	var lines []string
	fmt.Printf("# perfbench steady: %d s per run; sets: ", spec.RunSeconds)
	for s, set := range steadySets {
		fmt.Printf("%d = %s (%d runs) ", s+1, set.name, set.runs)
	}
	fmt.Println()
	fmt.Printf("%-8s %-10s %4s %12s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "drift", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, e := range spec.EndToEnd {
			first := 0.0
			for s, set := range steadySets {
				vs := values[s][w.Name][e.Name]
				if len(vs) == 0 {
					return fmt.Errorf("%s reported no %s", w.Name, e.Name)
				}
				q := quartiles(vs)
				spread := (q[2] - q[0]) / q[1]
				drift := 0.0
				if s == 0 {
					first = q[1]
				} else if e.Better == "lower" {
					drift = (q[1] - first) / first
				} else {
					drift = (first - q[1]) / first
				}
				verdict := "ok"
				switch {
				case set.runs < steadyRuns:
					verdict, drift = "same seed: noise on fixed inputs", 0
				case spread > e.Bound:
					verdict, ok = "SPREAD", false
				case drift > e.Bound:
					verdict, ok = "DRIFT", false
				case spread > e.Bound/3:
					verdict = "ok (spread above a third of the bound)"
				}
				fmt.Printf("%-8s %-10s %4d %12.4f %12.4f %12.4f %8.4f %8.4f %8.2f  %s\n",
					w.Name, e.Name, s+1, q[0], q[1], q[2], spread, math.Max(drift, 0), e.Bound, verdict)
				lines = append(lines, fmt.Sprintf("%s %s set %d: %s", w.Name, e.Name, s+1, fmtValues(vs)))
			}
		}
		for s := 1; s < len(steadySets); s++ {
			if !sameShares(shares[0][w.Name], shares[s][w.Name]) {
				ok = false
				fmt.Printf("%-8s failed operations differ between sets: %v vs %v\n", w.Name, shares[0][w.Name], shares[s][w.Name])
			}
		}
	}
	fmt.Println("# values in run order")
	for _, l := range lines {
		fmt.Println("#", l)
	}
	if !ok {
		return fmt.Errorf("not steady within the bounds of BENCHMARK.json")
	}
	fmt.Println("# steady: every spread and drift is within its bound")
	return nil
}

// sameShares compares the failed/attempted shares of two sets of runs.
func sameShares(a, b []string) bool {
	share := func(s string) float64 {
		var f, n float64
		fmt.Sscanf(s, "%g/%g", &f, &n)
		return f / n
	}
	for _, x := range a {
		for _, y := range b {
			if share(x) != share(y) {
				return false
			}
		}
	}
	return true
}

func fmtValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}
