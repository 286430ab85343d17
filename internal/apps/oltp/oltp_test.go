package oltp

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// runCfg is a short-window Run for tests. Runs are deterministic, so
// results are memoized: many tests assert different properties of the
// same configurations and need not re-simulate them.
func runCfg(mode Mode, inMem bool, threads int) *Result {
	key := fmt.Sprintf("%d/%v/%d", mode, inMem, threads)
	if r, ok := runCache[key]; ok {
		return r
	}
	r := Run(Config{
		Mode: mode, InMemory: inMem, Threads: threads,
		Warmup: sim.Millis(40), Window: sim.Millis(120), Seed: 9,
	})
	runCache[key] = r
	return r
}

var runCache = map[string]*Result{}

func TestDIPCAndIdealBeatLinuxEverywhere(t *testing.T) {
	inMems, threadGrid := []bool{true, false}, []int{4, 16}
	if testing.Short() {
		// One memoized point keeps the invariant covered cheaply.
		inMems, threadGrid = []bool{true}, []int{4}
	}
	for _, inMem := range inMems {
		for _, threads := range threadGrid {
			linux := runCfg(ModeLinux, inMem, threads)
			dipc := runCfg(ModeDIPC, inMem, threads)
			ideal := runCfg(ModeIdeal, inMem, threads)
			if dipc.Throughput <= linux.Throughput {
				t.Fatalf("mem=%v T=%d: dIPC (%.0f) not above Linux (%.0f)",
					inMem, threads, dipc.Throughput, linux.Throughput)
			}
			if ideal.Throughput <= linux.Throughput {
				t.Fatalf("mem=%v T=%d: Ideal (%.0f) not above Linux (%.0f)",
					inMem, threads, ideal.Throughput, linux.Throughput)
			}
			// §7.4: dIPC reaches more than 94% of the ideal efficiency
			// in all cases.
			if eff := dipc.Throughput / ideal.Throughput; eff < 0.94 {
				t.Fatalf("mem=%v T=%d: dIPC efficiency = %.1f%%, want >94%%",
					inMem, threads, 100*eff)
			}
		}
	}
}

func TestInMemorySpeedupBand(t *testing.T) {
	// Paper (in-memory): dIPC speedups 2.42×/5.12×/2.62×/1.81×/1.17×
	// across 4..512 threads, 2.13× on average. The simulation
	// reproduces the ordering and the ~2× scale, not the measured
	// mid-concurrency peak: 1.81× at 16 threads against the paper's
	// 5.12× (ROADMAP item 4 tracks this miss).
	linux := runCfg(ModeLinux, true, 4)
	dipc := runCfg(ModeDIPC, true, 4)
	speedup := dipc.Throughput / linux.Throughput
	if speedup < 1.6 || speedup > 4.5 {
		t.Fatalf("in-memory T=4 speedup = %.2f, want roughly the paper's ~2.4", speedup)
	}
}

func TestFig1BreakdownShape(t *testing.T) {
	// Fig. 1: Linux ≈ 51% user / 23% kernel / 24% idle; Ideal ≈ 81% /
	// 16% / 1%, with Ideal ~1.92× faster. Assert the qualitative shape
	// at the low-concurrency point where latency dominates.
	linux := runCfg(ModeLinux, true, 4)
	ideal := runCfg(ModeIdeal, true, 4)
	if r := float64(linux.AvgLatency) / float64(ideal.AvgLatency); r < 1.5 || r > 3.4 {
		t.Fatalf("Linux/Ideal latency ratio = %.2f, want ~1.9 (Fig. 1)", r)
	}
	if linux.KernelShare() < 2*ideal.KernelShare() {
		t.Fatalf("Linux kernel share (%.1f%%) should dwarf Ideal's (%.1f%%)",
			100*linux.KernelShare(), 100*ideal.KernelShare())
	}
	if linux.IdleShare() < 0.10 {
		t.Fatalf("Linux idle share = %.1f%%, want double digits (Fig. 1: 24%%)",
			100*linux.IdleShare())
	}
	if ideal.IdleShare() > 0.05 {
		t.Fatalf("Ideal idle share = %.1f%%, want ~1%%", 100*ideal.IdleShare())
	}
	if linux.UserShare() < 0.3 || linux.UserShare() > 0.7 {
		t.Fatalf("Linux user share = %.1f%%, want ~51%%", 100*linux.UserShare())
	}
}

func TestIdleTimeEliminatedByDIPC(t *testing.T) {
	// §7.4: idle goes "from 24% to 1%" between Linux and Ideal/dIPC in
	// the in-memory configuration.
	linux := runCfg(ModeLinux, true, 4)
	dipc := runCfg(ModeDIPC, true, 4)
	if dipc.IdleShare() >= linux.IdleShare()/3 {
		t.Fatalf("dIPC idle %.1f%% not well below Linux %.1f%%",
			100*dipc.IdleShare(), 100*linux.IdleShare())
	}
}

func TestOnDiskSlowerThanInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("four 16-thread windows are slow")
	}
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		mem := runCfg(mode, true, 16)
		disk := runCfg(mode, false, 16)
		if disk.Throughput >= mem.Throughput {
			t.Fatalf("%v: on-disk (%.0f) not slower than in-memory (%.0f)",
				mode, disk.Throughput, mem.Throughput)
		}
	}
}

func TestThroughputRisesWithThreadsOnDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("the 64-thread on-disk window is slow")
	}
	// With the disk adding latency, more threads raise throughput
	// until the CPUs saturate (the left side of Fig. 8's curves).
	low := runCfg(ModeDIPC, false, 4)
	high := runCfg(ModeDIPC, false, 64)
	if high.Throughput <= low.Throughput {
		t.Fatalf("dIPC on-disk throughput fell with threads: %.0f -> %.0f",
			low.Throughput, high.Throughput)
	}
}

// callsPerOpEstimate returns the expected cross-tier calls per
// operation for p's mix: six FastCGI exchanges plus, per query, one
// execute and one or two cursor fetches.
func callsPerOpEstimate(p *Params) float64 {
	total := p.BrowseWeight + p.LoginWeight + p.PurchaseWeight
	browseQ := 1 + p.BrowseGets
	loginQ := 1 + p.LoginHistory
	purchaseQ := 1 + p.PurchaseGets + 2*p.PurchaseLines + 1
	avgQ := (float64(p.BrowseWeight)*float64(browseQ) +
		float64(p.LoginWeight)*float64(loginQ) +
		float64(p.PurchaseWeight)*float64(purchaseQ)) / float64(total)
	return 6 + 2.1*avgQ
}

func TestCallsPerOpInExpectedRange(t *testing.T) {
	r := runCfg(ModeIdeal, true, 4)
	est := callsPerOpEstimate(DefaultParams())
	if r.CallsPerOp < est*0.6 || r.CallsPerOp > est*1.8 {
		t.Fatalf("calls/op = %.1f, estimate %.1f", r.CallsPerOp, est)
	}
	if r.CallsPerOp < 25 {
		t.Fatalf("calls/op = %.1f: the workload should be IPC-intensive", r.CallsPerOp)
	}
}

// ---- engine-level unit tests ----

func newDBWorld() (*sim.Engine, *kernel.Machine, *DB, *Params) {
	eng := sim.NewEngine(4)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	prm := DefaultParams()
	db := NewDB(m, prm, false)
	return eng, m, db, prm
}

func TestDBQueries(t *testing.T) {
	eng, m, db, prm := newDBWorld()
	p := m.NewProcess("db")
	m.Spawn(p, "q", nil, func(th *kernel.Thread) {
		if r := db.Exec(th, Query{Kind: QBrowseCategory, Key: 3}); r.Rows != 10 {
			t.Errorf("browse rows = %d, want 10", r.Rows)
		}
		if r := db.Exec(th, Query{Kind: QGetProduct, Key: 42}); r.Rows != 1 || r.Row != 42 {
			t.Errorf("get product = %+v", r)
		}
		if r := db.Exec(th, Query{Kind: QLogin, Key: 7}); r.Row != 7 {
			t.Errorf("login = %+v", r)
		}
		// Order flow: add a line, then history sees it.
		r := db.Exec(th, Query{Kind: QAddOrderLine, Key: 7})
		if r.Rows != 1 {
			t.Errorf("add order = %+v", r)
		}
		if r := db.Exec(th, Query{Kind: QOrderHistory, Key: 7}); r.Rows != 1 {
			t.Errorf("history rows = %d, want 1", r.Rows)
		}
		if r := db.Exec(th, Query{Kind: QUpdateStock, Key: 42}); r.Rows != 1 {
			t.Errorf("stock = %+v", r)
		}
		if db.sold[42] != 1 {
			t.Errorf("sale not counted: sold %d", db.sold[42])
		}
		// Stock never goes below 0: sales past initialStock are not counted.
		for i := 0; i < initialStock+5; i++ {
			db.Exec(th, Query{Kind: QUpdateStock, Key: 42})
		}
		if db.sold[42] != initialStock {
			t.Errorf("sold %d of a stock of %d", db.sold[42], initialStock)
		}
	})
	eng.Run()
	_ = prm
}

// TestDBBrowseRowsPerCategory checks that a category browse returns as
// many rows as the category holds, capped at 10, when Products is not a
// multiple of Categories: product i belongs to category i mod Categories.
func TestDBBrowseRowsPerCategory(t *testing.T) {
	for _, tc := range []struct{ products, categories int }{{10, 4}, {3, 4}, {100, 16}, {10000, 16}} {
		eng := sim.NewEngine(4)
		m := kernel.NewMachine(eng, cost.Default(), 1)
		prm := DefaultParams()
		prm.Products, prm.Categories = tc.products, tc.categories
		db := NewDB(m, prm, true)
		size := make([]int, tc.categories)
		for i := 0; i < tc.products; i++ {
			size[i%tc.categories]++
		}
		m.Spawn(m.NewProcess("db"), "q", nil, func(th *kernel.Thread) {
			for key := 0; key < 2*tc.categories; key++ {
				want := min(10, size[key%tc.categories])
				if r := db.Exec(th, Query{Kind: QBrowseCategory, Key: key}); r.Rows != want {
					t.Errorf("products=%d categories=%d key=%d: %d rows, want %d",
						tc.products, tc.categories, key, r.Rows, want)
				}
			}
		})
		eng.Run()
		eng.Close()
	}
}

func TestCommitWritesDiskOnlyOnDisk(t *testing.T) {
	eng, m, db, _ := newDBWorld()
	p := m.NewProcess("db")
	m.Spawn(p, "q", nil, func(th *kernel.Thread) {
		db.Exec(th, Query{Kind: QCommitOrder})
	})
	eng.Run()
	if writes := db.disk.writes; writes != 1 {
		t.Fatalf("on-disk commit writes = %d, want 1", writes)
	}

	eng2 := sim.NewEngine(4)
	m2 := kernel.NewMachine(eng2, cost.Default(), 1)
	db2 := NewDB(m2, DefaultParams(), true)
	p2 := m2.NewProcess("db")
	m2.Spawn(p2, "q", nil, func(th *kernel.Thread) {
		db2.Exec(th, Query{Kind: QCommitOrder})
	})
	eng2.Run()
	if writes := db2.disk.writes; writes != 0 {
		t.Fatalf("tmpfs commit writes = %d, want 0", writes)
	}
}

// TestBufferPoolWarm pins the warm-pool storage model: every page a
// query visits is a buffer-pool hit, so a category browse costs the
// engine's execution time plus exactly one hit per returned row, on
// disk and on tmpfs alike.
func TestBufferPoolWarm(t *testing.T) {
	for _, inMem := range []bool{false, true} {
		eng := sim.NewEngine(4)
		m := kernel.NewMachine(eng, cost.Default(), 1)
		prm := DefaultParams()
		db := NewDB(m, prm, inMem)
		var took sim.Time
		var rows int
		m.Spawn(m.NewProcess("db"), "q", nil, func(th *kernel.Thread) {
			start := eng.Now()
			rows = db.Exec(th, Query{Kind: QBrowseCategory, Key: 3}).Rows
			took = eng.Now() - start
		})
		eng.Run()
		want := prm.DBExecCost + sim.Time(rows)*m.P.CacheLineTouch*4
		if rows != 10 || took != want {
			t.Errorf("inMem=%v: browse of %d rows took %v, want %v (all hits)", inMem, rows, took, want)
		}
	}
}

func TestDiskSerializes(t *testing.T) {
	eng := sim.NewEngine(4)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	disk := &Disk{m: m}
	p := m.NewProcess("p")
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn(p, "w", m.CPUs[i], func(th *kernel.Thread) {
			disk.Write(th)
			done[i] = eng.Now()
		})
	}
	eng.Run()
	gap := done[1] - done[0]
	if gap < 0 {
		gap = -gap
	}
	da := cost.Default().DiskAccess
	if gap < da*9/10 {
		t.Fatalf("concurrent writes gap = %v, want ~%v (serialized device)", gap, da)
	}
}

func TestGenOpMixAndDeterminism(t *testing.T) {
	prm := DefaultParams()
	counts := map[OpKind]int{}
	rng := sim.NewRand(1)
	var op Operation
	longest := 0
	for i := 0; i < 3000; i++ {
		genOp(rng, prm, &op)
		counts[op.Kind]++
		longest = max(longest, len(op.Queries))
	}
	if counts[OpBrowse] < 1200 || counts[OpLogin] < 400 || counts[OpPurchase] < 700 {
		t.Fatalf("mix off: %v", counts)
	}
	// A closed-loop client sizes its query slice to maxPlan once.
	if longest != prm.maxPlan() {
		t.Fatalf("longest plan = %d queries, maxPlan = %d", longest, prm.maxPlan())
	}
	// Determinism: identical seed, identical stream. Refilling one
	// reused Operation draws exactly what fresh ones do, and leaves no
	// result of the previous operation in its slots.
	a, b := sim.NewRand(42), sim.NewRand(42)
	var reused Operation
	for i := 0; i < 100; i++ {
		fresh := &Operation{}
		genOp(a, prm, &reused)
		genOp(b, prm, fresh)
		if reused.Kind != fresh.Kind || len(reused.Queries) != len(fresh.Queries) {
			t.Fatalf("op %d: reused %v/%d queries, fresh %v/%d", i,
				reused.Kind, len(reused.Queries), fresh.Kind, len(fresh.Queries))
		}
		for j := range fresh.Queries {
			if reused.Queries[j] != fresh.Queries[j] {
				t.Fatalf("op %d query %d: reused %+v, fresh %+v", i, j, reused.Queries[j], fresh.Queries[j])
			}
			reused.Queries[j].R = QueryResult{Rows: 9, Bytes: 9, Row: 9} // a served result
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	a := runCfg(ModeLinux, true, 4)
	b := runCfg(ModeLinux, true, 4)
	if a.Ops != b.Ops || a.AvgLatency != b.AvgLatency {
		t.Fatalf("identical configs diverged: %d/%v vs %d/%v",
			a.Ops, a.AvgLatency, b.Ops, b.AvgLatency)
	}
}
