package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// Entry resolution (§6.2.1): the dIPC runtime's default resolver
// exchanges entry-point handles over UNIX named sockets. A process
// publishes an entry handle under a path; importers resolve the path the
// first time a caller stub touches the imported symbol (Fig. 3 step A),
// then create proxies with EntryRequest (step B). The socket exchange is
// charged as the two syscall round trips it costs; the handle transfer
// itself is an fd-passing operation.

// Publish exports an entry handle under a named-socket path.
func (rt *Runtime) Publish(t *kernel.Thread, path string, eh *EntryHandle) error {
	if eh == nil {
		return fmt.Errorf("dipc: publishing nil entry handle")
	}
	var err error
	t.Syscall(func() {
		t.Exec(t.Machine().P.SockKernel, stats.BlockKernel)
		if _, dup := rt.registry[path]; dup {
			err = fmt.Errorf("dipc: path %q already published", path)
			return
		}
		rt.registry[path] = eh
	})
	return err
}

// Resolve looks an entry handle up by its named-socket path, charging
// the connect + exchange round trip.
func (rt *Runtime) Resolve(t *kernel.Thread, path string) (*EntryHandle, error) {
	var eh *EntryHandle
	var err error
	// connect(2) on the named socket.
	t.Syscall(func() {
		t.Exec(t.Machine().P.SockKernel, stats.BlockKernel)
	})
	// handle exchange (sendmsg/recvmsg with SCM_RIGHTS).
	t.Syscall(func() {
		t.Exec(t.Machine().P.SockKernel+t.Machine().P.KernelCopy(64), stats.BlockKernel)
		var ok bool
		eh, ok = rt.registry[path]
		if !ok {
			err = fmt.Errorf("dipc: no entry handle published at %q", path)
		}
	})
	return eh, err
}

// MustImport is the convenience path applications use: resolve a
// published handle, request proxies with the caller-side descriptors and
// grant the calling process access to the proxy domain. It returns the
// imported entries ready to call.
func (rt *Runtime) MustImport(t *kernel.Thread, path string, descs []EntryDesc) ([]*ImportedEntry, error) {
	eh, err := rt.Resolve(t, path)
	if err != nil {
		return nil, err
	}
	domP, imports, err := rt.EntryRequest(t, eh, descs)
	if err != nil {
		return nil, err
	}
	self := rt.DomDefault(t)
	if err := rt.GrantCreate(t, self, domP); err != nil {
		return nil, err
	}
	return imports, nil
}
