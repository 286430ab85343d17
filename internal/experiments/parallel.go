// Concurrent experiment harness. Every sweep in this package is a grid
// of independent simulation points: each point constructs its own
// sim.Engine / kernel.Machine / core.Runtime, and the only values shared
// between points are read-only inputs (*cost.Params, *oltp.Params and
// package-level label tables, none of which are mutated after
// construction — see the race tests in harness_test.go). The harness
// fans such points out over a bounded worker pool while keeping result
// ordering deterministic: results are written into their point's index,
// so the output is byte-identical to the sequential loop regardless of
// worker count or completion order.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the configured worker-pool width; 0 means "one worker
// per available CPU" (runtime.GOMAXPROCS).
var parallelism atomic.Int32

// SetParallelism sets the number of workers used by the sweep harness.
// n <= 0 restores the default (one worker per available CPU); n == 1
// forces the sequential path. Safe to call concurrently, but intended to
// be set once before running experiments (cmd/dipcbench -parallel).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism reports the effective worker count.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// forEachPoint runs job(0..n-1) on the worker pool. Jobs are handed out
// in index order from a shared counter; with one worker this degenerates
// to the plain sequential loop. A panic in any job stops further job
// hand-out and is re-raised (with its original value) on the caller
// after the in-flight jobs drain, mirroring the sequential behaviour
// closely enough for the simulations' panic-on-bug style.
func forEachPoint(n int, job func(i int)) {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var firstPanic atomic.Pointer[panicBox]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//dipcvet:goroutine-ok workers claim indices atomically and write per-index slots; joined before any result is read
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, &panicBox{val: r})
				}
			}()
			for firstPanic.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	if pb := firstPanic.Load(); pb != nil {
		// Re-raise the original value so recover() sees the same thing
		// it would on the sequential (workers == 1) path.
		panic(pb.val)
	}
}

// panicBox carries a recovered panic value across goroutines.
type panicBox struct{ val any }

// sweep evaluates f over n points concurrently and returns the results
// in point order: out[i] == f(i), exactly as the sequential loop would
// produce them.
func sweep[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	forEachPoint(n, func(i int) { out[i] = f(i) })
	return out
}
