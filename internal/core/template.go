package core

// ProxyTemplate is one pre-built proxy code variant. The paper's
// prototype expands a single parametrized "master template" into ~12K
// concrete templates at build time (~600 B each, §6.1.1), keyed by entry
// signature and isolation properties; entry_request then copies the
// matching template and patches it by symbol relocation.
//
// The simulation mirrors that: templates are memoized per key, their
// size scales with the features they include (that size drives the copy
// cost at proxy-generation time and the instruction-cache footprint),
// and a relocation count drives the patch cost.
type ProxyTemplate struct {
	Key       templateKey
	CodeBytes int // template size (paper average: ~600 B)
	Relocs    int // relocation slots patched at generation time

	// maxDepth is the deepest kernel-control-stack chain any proxy of
	// this template has been part of; threads entering such a chain
	// pre-size their KCS to it so deep call stacks grow it once.
	maxDepth int
}

// templateKey identifies a template variant. Register counts and stack
// classes are bucketed exactly as a build-time expansion would have to.
type templateKey struct {
	inRegs     int
	outRegs    int
	stackClass int // 0: none, 1: <=64B, 2: <=512B, 3: larger
	capArgs    int
	proxyProps IsoProps // properties implemented inside the proxy
	stubProps  IsoProps // folded stub properties, if any
	cross      bool
}

// stackClass buckets a stack size the way the master template does.
func stackClass(bytes int) int {
	switch {
	case bytes == 0:
		return 0
	case bytes <= 64:
		return 1
	case bytes <= 512:
		return 2
	default:
		return 3
	}
}

// template returns (building if needed) the template for the given
// signature and merged policy.
func (rt *Runtime) template(sig Signature, mp mergedPolicy, cross bool) *ProxyTemplate {
	key := templateKey{
		inRegs:     sig.InRegs,
		outRegs:    sig.OutRegs,
		stackClass: stackClass(sig.StackBytes + sig.StackRet),
		capArgs:    sig.CapArgs,
		proxyProps: mp.proxy,
		cross:      cross,
	}
	if rt.FoldStubs {
		key.stubProps = mp.callerStub | mp.calleeStub
	}
	if tmpl, ok := rt.templates[key]; ok {
		return tmpl
	}
	tmpl := &ProxyTemplate{Key: key, CodeBytes: 180, Relocs: 4}
	// Feature-dependent code size: each property adds instructions.
	if cross {
		tmpl.CodeBytes += 160 // track_process_{call,ret} + TLS switch
		tmpl.Relocs += 3      // target process tag, TLS slots
	}
	if mp.proxy.Has(StackConfIntegrity) {
		tmpl.CodeBytes += 120
		tmpl.Relocs += 2
	}
	if mp.proxy.Has(DCSIntegrity) {
		tmpl.CodeBytes += 40
	}
	if mp.proxy.Has(DCSConfIntegrity) {
		tmpl.CodeBytes += 80
		tmpl.Relocs++
	}
	if rt.FoldStubs {
		// Folded stubs inline the register save/zero sequences.
		if key.stubProps.Has(RegIntegrity) {
			tmpl.CodeBytes += 8 * rt.WorstCaseLiveRegs
		}
		if key.stubProps.Has(RegConfidentiality) {
			tmpl.CodeBytes += 4 * (16 - sig.InRegs + 16 - sig.OutRegs)
		}
		if key.stubProps.Has(StackIntegrity) {
			tmpl.CodeBytes += 48
		}
	}
	tmpl.CodeBytes += 16 * sig.InRegs / 4 // argument shuffling
	rt.templates[key] = tmpl
	return tmpl
}
