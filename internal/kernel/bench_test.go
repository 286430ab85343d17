package kernel

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkThreadExec: back-to-back Exec slices of a lone thread. Nothing
// else is queued, so every slice takes the fast path — the running guard
// and Proc.Advance inline into Exec, no heap access, no switch. One op
// is one Exec.
func BenchmarkThreadExec(b *testing.B) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	m.Spawn(p, "worker", nil, func(th *Thread) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.ExecUser(100 * sim.Nanosecond)
		}
		b.StopTimer()
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
