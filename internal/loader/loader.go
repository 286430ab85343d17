// Package loader models dIPC's optional compiler pass and application
// loader (§5.3, §6.2).
//
// The real system is a CLang source-to-source pass that reads four
// annotation kinds — dipc_dom, dipc_entry, dipc_perm, dipc_iso_caller /
// dipc_iso_callee — emits caller/callee isolation stubs, and records
// extra binary sections that the program loader uses to place code and
// data into domains, configure intra-process grants and resolve entry
// points lazily. Here the annotations are declarative Go values, the
// "binary" is a Manifest, and Load drives the same dIPC runtime calls an
// annotated executable would trigger.
package loader

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// DomainSpec declares a domain of the program (the dipc_dom annotation):
// a named allocation pool for code and data.
type DomainSpec struct {
	Name string
	// DataBytes is the initial data footprint to map into the domain.
	DataBytes int
}

// EntrySpec declares an exported entry point (dipc_entry) with its
// callee-side isolation policy (dipc_iso_callee).
type EntrySpec struct {
	Name   string
	Domain string // exporting domain
	Fn     core.Func
	Sig    core.Signature
	Policy core.IsoProps
}

// PermSpec declares a direct intra-process grant between two domains
// (dipc_perm): e.g. a web server granted direct access into its PHP
// interpreter (§2.4 asymmetric isolation).
type PermSpec struct {
	Src, Dst string
	Perm     core.Perm
}

// ImportSpec declares a remote entry point the program calls
// (auto-detected by the compiler from cross-domain calls), with the
// caller-side policy (dipc_iso_caller).
type ImportSpec struct {
	Path   string // named-socket path of the exporter
	Name   string
	Sig    core.Signature
	Policy core.IsoProps
}

// Manifest is the loadable image: what the compiler pass would encode
// into the extra ELF sections (§5.3.2).
type Manifest struct {
	Name    string
	Domains []DomainSpec
	Entries []EntrySpec
	Perms   []PermSpec
	Imports []ImportSpec
	Publish string // named-socket path to publish this program's entries at
	// InlineStubs marks the binary as compiled with the dIPC pass: the
	// isolation stubs are inlined and co-optimized, so the runtime
	// generates proxies without the stub-side properties (§5.3.2).
	InlineStubs bool
}

// Image is a loaded program: its process, domains and resolved imports.
type Image struct {
	Proc    *kernel.Process
	Domains map[string]core.DomainHandle
	Exports *core.EntryHandle
	imports map[string]*core.ImportedEntry
	rt      *core.Runtime
}

// Load creates a dIPC-enabled process for the manifest and configures
// its domains, grants, exports and imports on the calling thread (the
// process's initial thread). Imports are resolved eagerly here; the real
// loader resolves them lazily on first call, which only moves the
// one-time resolution cost.
func Load(t *kernel.Thread, rt *core.Runtime, mf *Manifest) (*Image, error) {
	im := &Image{
		Proc:    t.Process(),
		Domains: make(map[string]core.DomainHandle),
		imports: make(map[string]*core.ImportedEntry),
		rt:      rt,
	}
	if _, err := rt.EnterProcessCode(t); err != nil {
		return nil, err
	}
	// Domains: the default one plus each declared pool.
	im.Domains["default"] = rt.DomDefault(t)
	for _, ds := range mf.Domains {
		if _, dup := im.Domains[ds.Name]; dup {
			return nil, fmt.Errorf("loader: duplicate domain %q", ds.Name)
		}
		h := rt.DomCreate(t)
		im.Domains[ds.Name] = h
		if ds.DataBytes > 0 {
			if _, err := rt.DomMmap(t, h, ds.DataBytes, mem.FlagWrite); err != nil {
				return nil, fmt.Errorf("loader: mapping domain %q: %w", ds.Name, err)
			}
		}
	}
	// Intra-process grants.
	for _, ps := range mf.Perms {
		src, ok := im.Domains[ps.Src]
		if !ok {
			return nil, fmt.Errorf("loader: perm source domain %q unknown", ps.Src)
		}
		dst, ok := im.Domains[ps.Dst]
		if !ok {
			return nil, fmt.Errorf("loader: perm destination domain %q unknown", ps.Dst)
		}
		down, err := rt.DomCopy(t, dst, ps.Perm)
		if err != nil {
			return nil, err
		}
		if err := rt.GrantCreate(t, src, down); err != nil {
			return nil, err
		}
	}
	// Exports.
	if len(mf.Entries) > 0 {
		byDomain := make(map[string][]core.EntryDesc)
		for _, es := range mf.Entries {
			dom := es.Domain
			if dom == "" {
				dom = "default"
			}
			if _, ok := im.Domains[dom]; !ok {
				return nil, fmt.Errorf("loader: entry %q in unknown domain %q", es.Name, dom)
			}
			byDomain[dom] = append(byDomain[dom], core.EntryDesc{
				Name: es.Name, Fn: es.Fn, Sig: es.Sig, Policy: es.Policy,
			})
		}
		if len(byDomain) != 1 {
			return nil, fmt.Errorf("loader: entries must share one domain per manifest (got %d)", len(byDomain))
		}
		//dipcvet:unordered-ok exactly one entry, enforced by the check above
		for dom, descs := range byDomain {
			eh, err := rt.EntryRegister(t, im.Domains[dom], descs)
			if err != nil {
				return nil, err
			}
			im.Exports = eh
			if mf.Publish != "" {
				if err := rt.Publish(t, mf.Publish, eh); err != nil {
					return nil, err
				}
			}
		}
	}
	// Imports (Fig. 3 steps A–B).
	byPath := make(map[string][]ImportSpec)
	for _, is := range mf.Imports {
		byPath[is.Path] = append(byPath[is.Path], is)
	}
	// Import in path order: MustImport charges simulated work, so the
	// iteration order must not follow the map.
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		specs := byPath[path]
		descs := make([]core.EntryDesc, len(specs))
		for i, is := range specs {
			descs[i] = core.EntryDesc{Name: is.Name, Sig: is.Sig, Policy: is.Policy}
		}
		ents, err := rt.MustImport(t, path, descs)
		if err != nil {
			return nil, fmt.Errorf("loader: importing %q: %w", path, err)
		}
		for i, is := range specs {
			im.imports[is.Name] = ents[i]
		}
	}
	return im, nil
}
