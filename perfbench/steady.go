package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs two sets of n untraced runs of every workload (or only
// the one named), the sets
// alternating run by run, and prints per workload and end-to-end metric
// each set's median and quartiles, its spread (quartile distance over
// the median) and the second set's median against the first's, both
// against the metric's bound in BENCHMARK.json. Set A uses seeds 1..n,
// set B seeds 101..100+n. Every run's host context line is kept, so a
// set that reads slow can be explained.
func steadiness(n int, seconds float64, only string) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ set, workload string }
	values := map[key]map[string][]float64{}
	var hosts []string
	for i := 0; i < n; i++ {
		order := []string{"A", "B"}
		if i%2 == 1 {
			order = []string{"B", "A"}
		}
		for _, set := range order {
			seed := uint64(1 + i)
			if set == "B" {
				seed += 100
			}
			for _, w := range workloads {
				if only != "" && w.name != only {
					continue
				}
				res, host, err := child(self, w.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("set %s %s seed %d: %w", set, w.name, seed, err)
				}
				hosts = append(hosts, fmt.Sprintf("%s %-8s seed %-3d wall_s=%.4f cpu_s=%.4f %s", set, w.name, seed,
					res.Metrics["wall_s"].Value, res.Metrics["cpu_s"].Value, host))
				k := key{set, w.name}
				if values[k] == nil {
					values[k] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[k][name] = append(values[k][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "steady: set %s %s seed %d done\n", set, w.name, seed)
			}
		}
	}

	fmt.Println("Host context of every run:")
	for _, h := range hosts {
		fmt.Println("  " + h)
	}
	fmt.Printf("\nSteadiness: %d runs per set, %gs each; spread = (q3-q1)/median, delta = median B / median A - 1\n", n, seconds)
	fmt.Printf("%-9s %-22s %6s  %11s %11s %11s %7s  %11s %7s  %7s  %s\n",
		"workload", "metric", "bound", "A q1", "A median", "A q3", "A sprd", "B median", "B sprd", "delta", "verdict")
	worst := 0.0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		for _, d := range endToEnd {
			a, b := values[key{"A", w.name}][d.Name], values[key{"B", w.name}][d.Name]
			bound := bounds[d.Name]
			qa, qb := quartiles(a), quartiles(b)
			sa, sb := spread(qa), spread(qb)
			delta := qb[1]/qa[1] - 1
			verdict := "ok"
			// The spread of set-up time is not held to its bound, only
			// the shift of its median.
			if d.Name != "setup_s" && (sa > bound/3 || sb > bound/3) {
				verdict = "SPREAD over bound/3"
			}
			if math.Abs(delta) > bound {
				verdict = "DELTA over bound"
			}
			if bound > 0 {
				worst = math.Max(worst, math.Abs(delta)/bound)
			}
			fmt.Printf("%-9s %-22s %6.3f  %11.5g %11.5g %11.5g %6.2f%%  %11.5g %6.2f%%  %+6.2f%%  %s\n",
				w.name, d.Name, bound, qa[0], qa[1], qa[2], 100*sa, qb[1], 100*sb, 100*delta, verdict)
		}
	}
	fmt.Printf("\nLargest |delta| is %.0f%% of its bound.\n", 100*worst)
	return nil
}

// child runs one untraced benchmark run in a child process and returns its
// result line and host context line.
func child(self, workload string, seed uint64, seconds float64) (*Result, string, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, "", fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, "", fmt.Errorf("run reported incorrect output")
	}
	host := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "host: ") {
			host = strings.TrimPrefix(l, "host: ")
		}
	}
	return &res, host, nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the report matches the acceptance rule.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}
