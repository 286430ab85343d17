package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// buildDir holds what a run leaves behind: the traced run's profiles.
const buildDir = ".bench_build"

// traced is a --trace 1 run: half the time in unprofiled batches, half
// in profiled ones, then the layer probes, then the per-layer metrics.
// The modeled results of profiled and unprofiled batches must be
// identical, and so must those of the replicas workload at 1 and 2
// shards.
func traced(w *workload, seed uint64, seconds float64) run {
	r := run{values: map[string]float64{}}
	half := time.Duration(seconds / 2 * float64(time.Second))

	var refs []pair
	plain, _, _ := batches(&r, w, seed, half, false, &refs)
	profiled, _, files := batches(&r, w, seed, half, true, &refs)
	if refs == nil || len(r.errs) > 0 {
		return r
	}

	prof := &profile{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			var p *profile
			if p, err = parseProfile(data); err == nil {
				prof.samples = append(prof.samples, p.samples...)
			}
		}
		if err != nil {
			r.fail(err)
			return r
		}
	}
	att := attribute(prof)
	for k, v := range att.shares() {
		r.values[k] = v
	}
	var sum float64
	for _, l := range profileLayers {
		sum += r.values[l+".cpu_share"]
	}
	if att.total == 0 || math.Abs(sum-1) > 1e-9 {
		r.fail(fmt.Errorf("layer shares sum to %v over %d profiled ns, want 1", sum, att.total))
	}
	if err := crossCheck(files, att); err != nil {
		r.fail(err)
	}

	cpu := func(c hostCost) float64 { return c.CPUS }
	r.values["trace.overhead"] = median(field(profiled, cpu))/median(field(plain, cpu)) - 1
	r.values["gc.cycles"] = median(field(plain, func(c hostCost) float64 { return c.GCs }))
	r.values["gc.pause_ms"] = median(field(plain, func(c hostCost) float64 { return c.PauseMs }))

	if w == replicas {
		one := runPair(w, subSeed(seed, 0), 1)
		r.calls += len(one)
		if err := samePair("running on 1 shard instead of 2", refs[0], one); err != nil {
			r.fail(err)
		}
	}
	for _, p := range probes {
		r.values[p.name] = runProbe(p)
	}
	avg := mean(refs)
	for i, t := range transports {
		for k, v := range avg[i].Layers {
			r.values[k+"_"+t.Suffix] = v
		}
	}
	fmt.Printf("%s: %d unprofiled and %d profiled pairs, %d profile samples (%.3gs of CPU time)\n",
		w.name, len(plain), len(profiled), len(prof.samples), float64(att.total)/1e9)
	return r
}

// pprofLine matches a row of `go tool pprof -top`: flat, flat%, sum%,
// cum, cum%, then the function name.
var pprofLine = regexp.MustCompile(`^\s*\S+\s+([0-9.]+)%\s+[0-9.]+%\s+\S+\s+[0-9.]+%\s+(.+)$`)

// crossCheck compares this reader's flat per-package grouping with the
// one `go tool pprof -top` prints for the same profiles: the top package
// must agree, and every package's share within half a percentage point
// (pprof rounds each row to 0.01%). It is skipped, with a note, where no
// go command is on PATH.
func crossCheck(files []string, att attribution) error {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		fmt.Println("pprof cross-check skipped: no go command on PATH")
		return nil
	}
	home, err := filepath.Abs(filepath.Join(buildDir, "home"))
	if err != nil {
		return err
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}, files...)
	cmd := exec.Command(goCmd, args...)
	cmd.Env = append(os.Environ(), "HOME="+home, "PPROF_TMPDIR="+home)
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -top: %w", err)
	}
	theirs := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := pprofLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		pct, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		fn := strings.TrimSuffix(strings.TrimSpace(m[2]), " (inline)")
		theirs[funcPackage(fn)] += pct
	}
	ours := map[string]float64{}
	for pkg, v := range att.leafPkg {
		ours[pkg] = 100 * float64(v) / float64(att.total)
	}
	top := func(m map[string]float64) string {
		best := ""
		for k, v := range m {
			if best == "" || v > m[best] || (v == m[best] && k < best) {
				best = k
			}
		}
		return best
	}
	if top(ours) != top(theirs) {
		return fmt.Errorf("pprof cross-check: top package is %s here, %s in go tool pprof", top(ours), top(theirs))
	}
	for pkg, v := range ours {
		if math.Abs(v-theirs[pkg]) > 0.5 {
			return fmt.Errorf("pprof cross-check: %s is %.2f%% here, %.2f%% in go tool pprof", pkg, v, theirs[pkg])
		}
	}
	fmt.Printf("pprof cross-check: top package %s (%.1f%% flat) agrees with go tool pprof -top\n", top(ours), ours[top(ours)])
	return nil
}
