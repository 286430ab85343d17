// Command oltp runs one configuration of the multi-tier OLTP web
// benchmark (§7.4) and prints its throughput, latency and time
// breakdown. It exposes what no scenario prints: one cell's mean
// latency, user/kernel/idle shares and calls per op, at any
// threads/cpus/seed. Example:
//
//	oltp -mode dipc -threads 64 -inmem -window 500
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/apps/oltp"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given argument list and streams;
// main is a thin wrapper so tests can drive the whole command in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oltp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "linux", "configuration: linux, dipc, ideal")
	threads := fs.Int("threads", 16, "threads per component (4..512 in the paper)")
	cpus := fs.Int("cpus", 4, "simulated CPU count")
	inmem := fs.Bool("inmem", false, "in-memory (tmpfs) database instead of on-disk")
	windowMs := fs.Float64("window", 250, "measurement window [ms]")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var m oltp.Mode
	switch *mode {
	case "linux":
		m = oltp.ModeLinux
	case "dipc":
		m = oltp.ModeDIPC
	case "ideal":
		m = oltp.ModeIdeal
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", *mode)
		return 2
	}
	r := oltp.Run(oltp.Config{
		Mode:     m,
		InMemory: *inmem,
		Threads:  *threads,
		CPUs:     *cpus,
		Window:   sim.Millis(*windowMs),
		Seed:     *seed,
	})
	fmt.Fprintf(stdout, "config:      %s, %d threads/component, %d cpus, in-memory=%v\n",
		m, r.Config.Threads, r.Config.CPUs, *inmem)
	fmt.Fprintf(stdout, "throughput:  %.0f ops/min (%d ops in %v)\n", r.Throughput, r.Ops, r.Config.Window)
	fmt.Fprintf(stdout, "latency:     %s mean\n", r.AvgLatency)
	fmt.Fprintf(stdout, "breakdown:   user %.1f%%  kernel %.1f%%  idle %.1f%%\n",
		100*r.UserShare(), 100*r.KernelShare(), 100*r.IdleShare())
	fmt.Fprintf(stdout, "calls/op:    %.1f cross-tier calls\n", r.CallsPerOp)
	return 0
}
