package core

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// GrantCreate allows code in the domain of src to access the domain of
// dst with dst's handle permission, by editing src's APL (Table 2). It
// requires owner permission on src — only a domain's owner can open it
// up (P1: "processes can only access each other's code and data when the
// accessee explicitly grants that right"; here the accessor's owner
// extends its own reach toward a domain whose handle it was explicitly
// given).
func (rt *Runtime) GrantCreate(t *kernel.Thread, src, dst DomainHandle) error {
	if src.perm != PermOwner {
		return errBadPerm("grant_create", PermOwner, src.perm)
	}
	if !dst.Valid() {
		return fmt.Errorf("dipc: grant_create with invalid destination handle")
	}
	archPerm := dst.perm.arch()
	if archPerm == codoms.PermNil {
		return fmt.Errorf("dipc: grant_create from a nil-permission handle")
	}
	var err error
	t.Syscall(func() {
		t.Exec(t.Machine().P.FutexWake, stats.BlockKernel) // APL edit
		err = rt.M.Arch.Grant(src.tag, dst.tag, archPerm)
	})
	return err
}
