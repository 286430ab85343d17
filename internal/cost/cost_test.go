package cost

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestEmptySyscallAnchor(t *testing.T) {
	p := Default()
	got := (p.SyscallTrap + p.SyscallDispatch + p.SyscallRet).Nanoseconds()
	if got < 30 || got > 38 {
		t.Fatalf("empty syscall = %.1fns, want ~34ns (paper §2.2)", got)
	}
}

func TestFuncCallAnchor(t *testing.T) {
	p := Default()
	if ns := p.FuncCall.Nanoseconds(); ns > 2 {
		t.Fatalf("function call = %.2fns, paper says under 2ns", ns)
	}
}

func TestCopyMonotone(t *testing.T) {
	p := Default()
	f := func(a, b uint32) bool {
		x, y := int(a%(4<<20)), int(b%(4<<20))
		if x > y {
			x, y = y, x
		}
		return p.Copy(x) <= p.Copy(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyBandwidthDegrades(t *testing.T) {
	p := Default()
	perByte := func(n int) float64 {
		return (p.Copy(n) - p.CopyFixed).Nanoseconds() / float64(n)
	}
	inL1 := perByte(8 << 10)  // 16 KB working set
	inL2 := perByte(64 << 10) // 128 KB working set
	inL3 := perByte(1 << 20)  // 2 MB working set
	inDRAM := perByte(16 << 20)
	if !(inL1 < inL2 && inL2 < inL3 && inL3 < inDRAM) {
		t.Fatalf("per-byte costs not degrading: L1=%v L2=%v L3=%v DRAM=%v",
			inL1, inL2, inL3, inDRAM)
	}
}

func TestKernelCopySlowerThanUserCopy(t *testing.T) {
	p := Default()
	for _, n := range []int{64, 4096, 1 << 20} {
		if p.KernelCopy(n) <= p.Copy(n) {
			t.Fatalf("kernel copy of %d bytes (%v) not slower than user copy (%v)",
				n, p.KernelCopy(n), p.Copy(n))
		}
	}
}

func TestCopyZeroAndNegative(t *testing.T) {
	p := Default()
	if p.Copy(0) != 0 || p.Copy(-5) != 0 {
		t.Fatal("zero/negative copies must be free")
	}
	if p.KernelCopy(0) != 0 {
		t.Fatal("zero kernel copy must be free")
	}
}

func TestProcessSwitchCostStructure(t *testing.T) {
	p := Default()
	threadSwitch := p.SchedPickNext + p.CtxSwitchRegs + p.CtxSwitchPollution
	processSwitch := threadSwitch + p.PageTableSwitch + p.TLBRefill + p.CurrentSwitch
	if processSwitch <= threadSwitch {
		t.Fatal("a process switch must cost more than a thread switch")
	}
	// §2.2: ~80% of a same-CPU semaphore round trip is software, so the
	// pure hardware part (traps + page-table switch) must be a clear
	// minority of the total switch cost.
	hw := 2*(p.SyscallTrap+p.SyscallRet) + p.PageTableSwitch
	sw := processSwitch - p.PageTableSwitch
	if float64(hw) > 0.5*float64(hw+sw) {
		t.Fatalf("hardware share too large: hw=%v sw=%v", hw, sw)
	}
}

func TestCrossCPUCostsDwarfLocalOnes(t *testing.T) {
	p := Default()
	if p.IPISend+p.IPIHandle < 2*(p.SyscallTrap+p.SyscallDispatch+p.SyscallRet) {
		t.Fatal("IPI round half should dwarf a syscall (§2.2)")
	}
}

func TestDomainSwitchIsFree(t *testing.T) {
	p := Default()
	if p.DomainSwitch != 0 {
		t.Fatal("CODOMs domain crossing must add no pipeline cost (§4.1)")
	}
	if p.APLCacheLookup > sim.Nanos(2) {
		t.Fatal("APL cache lookup should take ~1-2 cycles (§4.3)")
	}
}

func TestProxyCheaperThanSyscall(t *testing.T) {
	p := Default()
	proxyMin := p.KCSPush + p.KCSPop + p.StackCheck + p.FuncCall
	syscall := p.SyscallTrap + p.SyscallDispatch + p.SyscallRet
	if proxyMin >= syscall {
		t.Fatalf("minimal proxy (%v) must beat a syscall (%v): Fig. 5 dIPC-Low < syscall",
			proxyMin, syscall)
	}
}
