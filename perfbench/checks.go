package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// checkPair applies the output checks to one Linux/dIPC pair of w:
// every transport completed requests, every end-to-end modeled value is
// a positive number, dIPC is at least as fast as Linux (the paper's
// ordering claim), and the replicas workload actually hedged.
func checkPair(w *workload, p pair) []error {
	var errs []error
	for i, t := range transports {
		m := p[i]
		if m.Requests <= 0 || m.OK <= 0 || m.Samples <= 0 {
			errs = append(errs, fmt.Errorf("%s/%s completed no requests (%d requests, %d ok, %d samples)",
				w.name, t.Suffix, m.Requests, m.OK, m.Samples))
		}
		for name, v := range map[string]float64{"kops": m.Kops, "lat_us": m.LatUS, "tail_us": m.TailUS} {
			if !(v > 0) || math.IsInf(v, 0) {
				errs = append(errs, fmt.Errorf("%s/%s: model_%s is %v", w.name, t.Suffix, name, v))
			}
		}
		if w == replicas && m.Layers["oltp.hedges"] <= 0 {
			errs = append(errs, fmt.Errorf("replicas/%s issued no hedged requests", t.Suffix))
		}
	}
	linux, dipc := p[0], p[1]
	if dipc.Kops < linux.Kops {
		errs = append(errs, fmt.Errorf("%s: dIPC throughput %.4g kops/s below Linux %.4g", w.name, dipc.Kops, linux.Kops))
	}
	if dipc.LatUS > linux.LatUS {
		errs = append(errs, fmt.Errorf("%s: dIPC latency %.4gus above Linux %.4gus", w.name, dipc.LatUS, linux.LatUS))
	}
	if dipc.TailUS > linux.TailUS {
		errs = append(errs, fmt.Errorf("%s: dIPC tail latency %.4gus above Linux %.4gus", w.name, dipc.TailUS, linux.TailUS))
	}
	return errs
}

// samePair requires two pairs to be bit-identical, naming the first
// difference when they are not.
func samePair(what string, want, got pair) error {
	if reflect.DeepEqual(want, got) {
		return nil
	}
	for i, t := range transports {
		a, b := want[i], got[i]
		fields := map[string][2]float64{
			"requests": {float64(a.Requests), float64(b.Requests)},
			"ok":       {float64(a.OK), float64(b.OK)},
			"kops":     {a.Kops, b.Kops},
			"lat_us":   {a.LatUS, b.LatUS},
			"tail_us":  {a.TailUS, b.TailUS},
			"samples":  {float64(a.Samples), float64(b.Samples)},
		}
		for k, v := range a.Layers {
			fields[k] = [2]float64{v, b.Layers[k]}
		}
		names := make([]string, 0, len(fields))
		for k := range fields {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if v := fields[k]; math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				return fmt.Errorf("%s changed modeled %s/%s: %v, then %v", what, t.Suffix, k, v[0], v[1])
			}
		}
	}
	return fmt.Errorf("%s changed the modeled results", what)
}
