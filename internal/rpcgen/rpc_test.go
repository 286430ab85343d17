package rpcgen

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/ipc"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestXDRRoundTrip(t *testing.T) {
	var e Encoder
	e.PutUint32(42)
	e.PutBool(true)
	e.PutBytes([]byte{1, 2, 3})
	d := NewDecoder(e.Bytes())
	if v, _ := d.Uint32(); v != 42 {
		t.Fatalf("u32 = %d", v)
	}
	if v, _ := d.Bool(); !v {
		t.Fatal("bool")
	}
	if v, _ := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", v)
	}
	if rest := len(d.buf) - d.off; rest != 0 {
		t.Fatalf("remaining = %d", rest)
	}
}

func TestXDRAlignment(t *testing.T) {
	var e Encoder
	e.PutBytes([]byte{1}) // 4 (len) + 1 + 3 pad
	if e.Len() != 8 {
		t.Fatalf("len = %d, want 8 (padded)", e.Len())
	}
	var e2 Encoder
	e2.PutBytes([]byte{1, 2, 3, 4})
	if e2.Len() != 8 {
		t.Fatalf("len = %d, want 8 (no pad needed)", e2.Len())
	}
}

func TestXDRUnderflow(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if _, err := d.Uint32(); err == nil {
		t.Fatal("underflow not detected")
	}
	// Length word promising more than available.
	var e Encoder
	e.PutUint32(1000)
	d2 := NewDecoder(e.Bytes())
	if _, err := d2.Bytes(); err == nil {
		t.Fatal("oversized opaque not detected")
	}
}

func TestXDRPropertyRoundTrip(t *testing.T) {
	f := func(a uint32, b bool, blob []byte) bool {
		var e Encoder
		e.PutUint32(a)
		e.PutBool(b)
		e.PutBytes(blob)
		d := NewDecoder(e.Bytes())
		ga, err1 := d.Uint32()
		gb, err2 := d.Bool()
		gblob, err3 := d.Bytes()
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return ga == a && gb == b && bytes.Equal(gblob, blob) && d.off == len(d.buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRPCEcho(t *testing.T) {
	eng := sim.NewEngine(3)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	conn := ipc.NewConn(0)
	srv := NewServer()
	srv.Register(1, func(th *kernel.Thread, args []byte) []byte {
		out := make([]byte, len(args))
		for i, b := range args {
			out[i] = b + 1
		}
		return out
	})
	m.Spawn(ps, "server", m.CPUs[1], func(th *kernel.Thread) {
		srv.Serve(th, conn)
	})
	var got []byte
	var callErr error
	m.Spawn(pc, "client", m.CPUs[0], func(th *kernel.Thread) {
		cl := NewClient(conn)
		got, callErr = cl.Call(th, 1, []byte{10, 20, 30})
		Shutdown(th, conn)
	})
	eng.Run()
	if callErr != nil {
		t.Fatal(callErr)
	}
	if !bytes.Equal(got, []byte{11, 21, 31}) {
		t.Fatalf("got %v", got)
	}
}

func TestRPCUnknownProcedure(t *testing.T) {
	eng := sim.NewEngine(3)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	conn := ipc.NewConn(0)
	srv := NewServer()
	var callErr error
	m.Spawn(ps, "server", nil, func(th *kernel.Thread) {
		srv.Serve(th, conn)
	})
	m.Spawn(pc, "client", nil, func(th *kernel.Thread) {
		cl := NewClient(conn)
		_, callErr = cl.Call(th, 99, nil)
		Shutdown(th, conn)
	})
	eng.Run()
	if callErr == nil {
		t.Fatal("unknown procedure must error")
	}
}

// measureRPC returns the mean round-trip time of a 1-byte local RPC.
func measureRPC(t *testing.T, sameCPU bool, payload int) sim.Time {
	t.Helper()
	eng := sim.NewEngine(3)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	conn := ipc.NewConn(0)
	srv := NewServer()
	srv.Register(1, func(th *kernel.Thread, args []byte) []byte { return args })
	serverCPU := m.CPUs[0]
	if !sameCPU {
		serverCPU = m.CPUs[1]
	}
	m.Spawn(ps, "server", serverCPU, func(th *kernel.Thread) {
		srv.Serve(th, conn)
	})
	const rounds = 100
	var total sim.Time
	m.Spawn(pc, "client", m.CPUs[0], func(th *kernel.Thread) {
		cl := NewClient(conn)
		args := make([]byte, payload)
		for i := 0; i < 10; i++ {
			cl.Call(th, 1, args)
		}
		start := eng.Now()
		for i := 0; i < rounds; i++ {
			cl.Call(th, 1, args)
		}
		total = eng.Now() - start
		Shutdown(th, conn)
	})
	eng.Run()
	return total / rounds
}

func TestRPCRoundTripNearPaperAnchor(t *testing.T) {
	// Fig. 5: Local RPC (=CPU) ≈ 3428× a 2ns call ≈ 6.9us; the intro
	// says "more than 3000× slower than a regular function call".
	rt := measureRPC(t, true, 1)
	ns := rt.Nanoseconds()
	if ns < 6000 || ns > 8500 {
		t.Fatalf("RPC round trip = %.0fns, want ~6.9us (Fig. 5)", ns)
	}
}

func TestRPCGrowsWithPayload(t *testing.T) {
	small := measureRPC(t, true, 1)
	big := measureRPC(t, true, 64<<10)
	if big < small+cost.Default().Copy(64<<10) {
		t.Fatalf("64KB payload (%v) should cost well above 1B (%v): copies dominate (Fig. 6)", big, small)
	}
}
