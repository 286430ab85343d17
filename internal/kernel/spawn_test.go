//go:build go1.23

package kernel

import (
	"iter"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// spawnBatch is how many threads one spawn measurement starts.
const spawnBatch = 64

// spawnThreads spawns n threads with empty bodies on m, runs eng until
// each has been dispatched and has exited, and closes eng.
func spawnThreads(eng *sim.Engine, m *Machine, n int) {
	p := m.NewProcess("p")
	for i := 0; i < n; i++ {
		m.Spawn(p, "t", nil, func(*Thread) {})
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	eng.Close()
}

// pullCoroutines starts n bare iter.Pull coroutines, switches into each
// once and stops it: the runtime's share of what a thread costs.
func pullCoroutines(n int) {
	for i := 0; i < n; i++ {
		next, stop := iter.Pull(func(yield func(struct{}) bool) { yield(struct{}{}) })
		next()
		stop()
	}
}

// TestSpawnAllocs bounds what a thread costs the simulator beyond its
// coroutine: spawning, dispatching and closing a thread may allocate at
// most two objects more than a bare iter.Pull coroutine that is started
// and stopped, the Thread (which carries its sim.Proc) and the
// coroutine body's closure. Each count is the growth from n to 2n, so
// the machine's fixed set-up cancels; what is left besides the two is
// the amortised growth of the engine's and the run queue's slices, a
// few allocations per doubling, which the quarter of slack covers.
// Comparing against iter.Pull keeps the bound free of what one Go
// release or another allocates inside a coroutine.
func TestSpawnAllocs(t *testing.T) {
	threads := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			eng, m := newTestMachine(1)
			spawnThreads(eng, m, n)
		})
	}
	pulls := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { pullCoroutines(n) })
	}
	const n = spawnBatch
	thread := (threads(2*n) - threads(n)) / n
	pull := (pulls(2*n) - pulls(n)) / n
	if extra := thread - pull; extra > 2.25 {
		t.Fatalf("a thread allocates %.2f objects, %.2f more than an iter.Pull coroutine (%.2f); want at most 2 more: the Thread and the body closure",
			thread, extra, pull)
	}
}

// BenchmarkSpawn: what a thread costs to spawn, dispatch and close,
// reported per thread as allocs/thread and B/thread. Each op runs a
// batch of threads on a fresh one-CPU machine; only the batch is
// counted, not the machine's set-up.
func BenchmarkSpawn(b *testing.B) {
	var before, after runtime.MemStats
	var mallocs, bytes uint64
	for i := 0; i < b.N; i++ {
		eng, m := newTestMachine(1)
		runtime.ReadMemStats(&before)
		spawnThreads(eng, m, spawnBatch)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	threads := float64(b.N) * spawnBatch
	b.ReportMetric(float64(mallocs)/threads, "allocs/thread")
	b.ReportMetric(float64(bytes)/threads, "B/thread")
}
