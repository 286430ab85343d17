// Package oltp reproduces the paper's multi-tier OLTP web benchmark
// (§2, §7.4): a DVDStore-like workload driven against an Apache-like web
// tier, a PHP-like interpreter tier and a MariaDB-like database tier.
// The three tiers run as isolated processes over UNIX sockets (the Linux
// baseline), as one unsafe process (Ideal), or as dIPC-enabled processes
// bridged by proxies (dIPC) — the configurations of Figures 1 and 8.
package oltp

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Disk is a serialized storage device: one access at a time, each taking
// the cost model's DiskAccess (the database's HDD in the on-disk
// configuration). Waiting threads sleep, which is what produces the
// "Idle / IO wait" share of the time breakdowns.
type Disk struct {
	m         *kernel.Machine
	busyUntil sim.Time
	writes    uint64
}

// Write blocks the thread for one synchronous log write.
func (d *Disk) Write(t *kernel.Thread) {
	d.writes++
	now := d.m.Eng.Now()
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + d.m.P.DiskAccess
	t.SleepFor(d.busyUntil - now)
}
