package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// The runners never stop the goroutines of the simulated threads they
// start, so every call leaves its engine reachable: a process that runs
// pair after pair grows its heap and collects garbage less and less
// often, so its pairs read cheaper the later they run. The benchmark
// therefore measures each pair in a fresh child process, after one
// warm-up pair at the same seed, so that every measured pair starts from
// the same process state; a run takes as many such batches as fit in its
// time.
//
// Sub-seeds: one simulated window of the open-loop workload holds too few
// tail samples for its p999 to be steady from seed to seed, so a run's
// modeled results are the mean over several windows, each with its own
// seed derived from --seed. Batches cycle through the sub-seeds, and a
// run ends on a whole cycle, so every run measures the same mix.
var subSeeds = map[string]int{"fig8": 8, "openloop": 8, "replicas": 2}

// subSeed is the seed of window i of a run at seed.
func subSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// batchResult is what one child process reports.
type batchResult struct {
	Cost      hostCost // of the measured pair
	PeakRSSMB float64
	Ref       pair // the measured pair's modeled results
	Errors    []string
}

// runBatch is the child side: a warm-up pair, then the measured pair at
// the same seed, which must reproduce it exactly and pass the output
// checks. With a profile path, the measured pair runs under a CPU profile
// written there.
func runBatch(w *workload, seed uint64, profilePath string) batchResult {
	var res batchResult
	fail := func(err error) { res.Errors = append(res.Errors, err.Error()) }
	refs := []float64{pingPongMs()}
	warm := runPair(w, seed, 2)
	if profilePath != "" {
		f, err := os.Create(profilePath)
		if err != nil {
			fail(err)
			return res
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
			return res
		}
	}
	refs = append(refs, pingPongMs())
	res.Cost = measure(func() { res.Ref = runPair(w, seed, 2) })
	res.Cost.PingPongMs = median(append(refs, pingPongMs()))
	if profilePath != "" {
		pprof.StopCPUProfile()
	}
	res.Cost.Requests = float64(res.Ref[0].Requests + res.Ref[1].Requests)
	res.PeakRSSMB = peakRSSMB()
	for _, err := range checkPair(w, res.Ref) {
		fail(err)
	}
	if err := samePair("a repeated run", warm, res.Ref); err != nil {
		fail(err)
	}
	return res
}

// batches is the parent side: it runs child batches of w, cycling through
// the sub-seeds, for at least d and whole cycles, and returns their
// measured costs and peak memory. The modeled results of every sub-seed
// must equal those in *refs, which the first cycle fills when it is nil.
// With profile set, each batch writes a CPU profile into buildDir and the
// paths are returned.
func batches(r *run, w *workload, seed uint64, d time.Duration, profile bool, refs *[]pair) (costs []hostCost, rss []float64, profiles []string) {
	self, err := os.Executable()
	if err != nil {
		r.fail(err)
		return
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		r.fail(err)
		return
	}
	k := subSeeds[w.name]
	end := time.Now().Add(d)
	// At least one whole cycle, however short d is.
	for i := 0; i < k || i%k != 0 || time.Now().Before(end); i++ {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(subSeed(seed, i%k), 10), "--batch"}
		if profile {
			path := filepath.Join(buildDir, fmt.Sprintf("perfbench-%s-%d.pprof", w.name, i))
			args = append(args, "--profile", path)
			profiles = append(profiles, path)
		}
		res, err := runChild(self, args)
		if err != nil {
			r.fail(fmt.Errorf("batch %d: %w", i, err))
			return
		}
		r.calls += 4 // a warm-up pair and a measured pair
		for _, e := range res.Errors {
			r.fail(fmt.Errorf("sub-seed %d: %s", i%k, e))
		}
		if len(*refs) < k {
			*refs = append(*refs, res.Ref)
		} else if err := samePair("another process", (*refs)[i%k], res.Ref); err != nil {
			r.fail(fmt.Errorf("sub-seed %d: %w", i%k, err))
		}
		costs = append(costs, res.Cost)
		rss = append(rss, res.PeakRSSMB)
		if len(r.errs) > 0 {
			return
		}
	}
	return
}

// runChild runs one batch in a child process and waits for it.
func runChild(self string, args []string) (*batchResult, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res batchResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("batch result: %w", err)
	}
	return &res, nil
}

// mean averages the modeled results of several sub-seeds: counts add up,
// rates, latencies and per-layer quantities are averaged.
func mean(ps []pair) pair {
	var out pair
	n := float64(len(ps))
	for i := range out {
		m := modeled{Layers: map[string]float64{}}
		for _, p := range ps {
			m.Requests += p[i].Requests
			m.OK += p[i].OK
			m.Samples += p[i].Samples
			m.Kops += p[i].Kops / n
			m.LatUS += p[i].LatUS / n
			m.TailUS += p[i].TailUS / n
			for k, v := range p[i].Layers {
				m.Layers[k] += v / n
			}
		}
		out[i] = m
	}
	return out
}
