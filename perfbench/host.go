package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the process's host counters.
type usage struct {
	cpu     time.Duration // user+sys CPU time of the whole process
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// hostCost is the host cost of one measured stretch of calls.
type hostCost struct {
	WallS, CPUS    float64
	Mallocs, Bytes float64
	GCs            float64
	PauseMs        float64
	Requests       float64 // simulated requests the measured calls completed or failed
	PingPongMs     float64 // the host reference around the measured calls
}

// measure runs f and returns its host cost. It collects garbage first, so
// every measured stretch starts from the same heap state, and reads the
// memory statistics outside the timed interval, since reading them stops
// the world.
func measure(f func()) hostCost {
	runtime.GC()
	before := readUsage()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	after := readUsage()
	return hostCost{
		WallS:   wall.Seconds(),
		CPUS:    (after.cpu - before.cpu).Seconds(),
		Mallocs: float64(after.mallocs - before.mallocs),
		Bytes:   float64(after.bytes - before.bytes),
		GCs:     float64(after.gcs - before.gcs),
		PauseMs: float64(after.pauseNs-before.pauseNs) / 1e6,
	}
}

// peakRSSMB is the process's peak resident set so far. It reads VmHWM,
// the high-water mark of this process's own address space: getrusage's
// maxrss also counts the parent's peak, which a child inherits across the
// fork and exec that started it.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (the mean of the two middle values for
// an even count); it does not reorder xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func field(cs []hostCost, f func(hostCost) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// hostContext describes the machine a run measured on, so that a set of
// runs that reads slow can be told apart from a slower program. It
// includes the time of a fixed standard-library goroutine ping-pong,
// which reads slow when the host does.
func hostContext() string {
	load, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		load = []byte("unavailable")
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s loadavg=%q pingpong_ms=%.1f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(load)), pingPongMs())
}

// The host this benchmark runs on changes speed by a quarter and more over
// minutes, as other tenants come and go, and it slows the simulator and a
// goroutine ping-pong alike: both spend their time switching goroutines.
// Host times are therefore reported scaled to a fixed reference speed:
// each batch times the ping-pong around its measured pair, and a run's
// times are multiplied by refPingPongMs over the median reference it saw.
// The reference uses only the standard library, so a change to this
// repository moves the scaled times exactly as it moves the raw ones.
const refPingPongMs = 50 // the reference's time on a 2-core x86-64 host

func hostScale(pingPongMs float64) float64 { return refPingPongMs / pingPongMs }

// pingPongMs times 100k round trips between two goroutines on one
// thread.
func pingPongMs() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < 100_000; i++ {
		ping <- i
		<-pong
	}
	d := time.Since(t0)
	close(ping)
	<-pong
	return float64(d.Microseconds()) / 1e3
}
