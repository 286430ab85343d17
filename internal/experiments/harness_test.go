package experiments

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withParallelism runs f under a fixed worker count and restores the
// default afterwards.
func withParallelism(n int, f func()) {
	SetParallelism(n)
	defer SetParallelism(0)
	f()
}

func TestParallelismSetter(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Parallelism() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	SetParallelism(-5)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative SetParallelism should restore the default, got %d", got)
	}
}

func TestSweepOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 16} {
		withParallelism(workers, func() {
			const n = 57
			got := sweep(n, func(i int) int { return i * i })
			if len(got) != n {
				t.Fatalf("workers=%d: len = %d, want %d", workers, len(got), n)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
				}
			}
		})
	}
}

func TestSweepZeroPoints(t *testing.T) {
	if got := sweep(0, func(i int) int { t.Fatal("job ran"); return 0 }); len(got) != 0 {
		t.Fatalf("empty sweep returned %v", got)
	}
}

func TestSweepBoundsConcurrency(t *testing.T) {
	const workers = 3
	withParallelism(workers, func() {
		var cur, peak atomic.Int32
		var mu sync.Mutex
		sweep(64, func(i int) int {
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			runtime.Gosched()
			cur.Add(-1)
			return i
		})
		if p := peak.Load(); p > workers {
			t.Fatalf("observed %d concurrent jobs, pool bounded at %d", p, workers)
		}
	})
}

func TestSweepPanicPropagates(t *testing.T) {
	withParallelism(4, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("sweep swallowed the job panic")
			}
			if !strings.Contains(r.(string), "boom") {
				t.Fatalf("panic value %q does not carry the cause", r)
			}
		}()
		sweep(8, func(i int) int {
			if i == 5 {
				panic("boom")
			}
			return i
		})
	})
}

func TestSweepStopsHandingOutJobsAfterPanic(t *testing.T) {
	withParallelism(2, func() {
		var executed atomic.Int32
		func() {
			defer func() { _ = recover() }()
			sweep(100, func(i int) int {
				if i == 0 {
					panic("early")
				}
				executed.Add(1)
				time.Sleep(time.Millisecond) // give the recover a chance to land
				return i
			})
		}()
		if n := executed.Load(); n >= 50 {
			t.Fatalf("%d jobs ran after the panic; hand-out should stop early", n)
		}
	})
}

// canonicalJSON runs a registered scenario with overrides and returns
// its canonical JSON document.
func canonicalJSON(t *testing.T, name string, overrides map[string]string) string {
	t.Helper()
	data, err := runScenarioAt(t, name, overrides).MarshalCanonical()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return string(data)
}

// requireSameAcrossWidths runs each scenario sequentially and then at
// every worker count, and requires byte-identical canonical JSON.
func requireSameAcrossWidths(t *testing.T, widths []int, runs map[string]map[string]string) {
	t.Helper()
	seq := make(map[string]string)
	withParallelism(1, func() {
		for name, overrides := range runs {
			seq[name] = canonicalJSON(t, name, overrides)
		}
	})
	for _, workers := range widths {
		withParallelism(workers, func() {
			for name, overrides := range runs {
				if got := canonicalJSON(t, name, overrides); got != seq[name] {
					t.Errorf("workers=%d: %s diverged from sequential:\n%s\nvs\n%s", workers, name, got, seq[name])
				}
			}
		})
	}
}

// TestMicroSweepsDeterministicAcrossWorkerCounts is the harness's core
// guarantee: a converted sweep's canonical JSON is byte-identical
// whatever the worker count (and therefore identical to the sequential
// path, which is the workers=1 case).
func TestMicroSweepsDeterministicAcrossWorkerCounts(t *testing.T) {
	workerCounts := []int{2, 7}
	if testing.Short() {
		workerCounts = []int{4}
	}
	requireSameAcrossWidths(t, workerCounts, map[string]map[string]string{
		"fig6":         nil,
		"ablation-tls": nil,
		"fig2":         nil,
	})
}

// TestOLTPSweepDeterministicAcrossWorkerCounts checks the macro
// benchmark path (Fig. 8 plus the scaling extension) the same way. The
// OLTP runs dominate test wall-clock, so it is trimmed under -short.
func TestOLTPSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	threads, window, cpus := "4,16", "60ms", "1,4"
	if testing.Short() {
		threads, window, cpus = "4", "30ms", "2"
	}
	requireSameAcrossWidths(t, []int{4}, map[string]map[string]string{
		"fig8":        {"threads": threads, "window": window},
		"fig8scaling": {"cpus": cpus, "threads": "8", "window": window},
	})
}
