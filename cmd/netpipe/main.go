// Command netpipe runs the driver-isolation case study (§7.3): a
// netpipe-style latency/bandwidth sweep over an Infiniband-like NIC with
// the user-level driver isolated by the chosen mechanism. It exposes
// what the fig7 scenario does not print: the absolute per-size latency
// of any variant at any round count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/apps/netpipe"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given argument list and streams;
// main is a thin wrapper so tests can drive the whole command in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netpipe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("variant", "dipc", "bare, dipc, dipcproc, kernel, sem, pipe")
	maxPow := fs.Int("maxpow", 12, "largest transfer size as a power of two")
	rounds := fs.Int("rounds", 100, "latency rounds / bandwidth messages per size")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	variants := map[string]netpipe.Variant{
		"bare": netpipe.Bare, "dipc": netpipe.DIPC, "dipcproc": netpipe.DIPCProc,
		"kernel": netpipe.Kernel, "sem": netpipe.Sem, "pipe": netpipe.Pipe,
	}
	v, ok := variants[*variant]
	if !ok {
		fmt.Fprintf(stderr, "unknown variant %q\n", *variant)
		return 2
	}
	fmt.Fprintf(stdout, "%-10s %14s %14s %12s %12s\n", "size[B]", "latency", "bare lat", "lat ovh[%]", "bw ovh[%]")
	for p := 0; p <= *maxPow; p++ {
		size := 1 << p
		bareLat := netpipe.Setup(netpipe.Bare, 1).RunLatency(size, *rounds)
		lat := netpipe.Setup(v, 1).RunLatency(size, *rounds)
		bareBW := netpipe.Setup(netpipe.Bare, 1).RunBandwidth(size, *rounds)
		bw := netpipe.Setup(v, 1).RunBandwidth(size, *rounds)
		fmt.Fprintf(stdout, "%-10d %14s %14s %12.2f %12.2f\n",
			size, lat, bareLat,
			(float64(lat)-float64(bareLat))/float64(bareLat)*100,
			(1-bw/bareBW)*100)
	}
	return 0
}
